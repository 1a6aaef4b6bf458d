"""Tests for trace I/O, result export, and the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.harness.experiments import ExperimentResult
from repro.harness.export import result_to_csv, result_to_dict, result_to_json
from repro.workloads import get_workload, workload_names
from repro.workloads.io import (
    _HEADER,
    _MAGIC,
    _RECORD,
    _VERSION,
    TraceFormatError,
    TraceSet,
    iter_trace,
    load_trace,
    load_trace_set,
    save_trace,
)


def sample_result():
    return ExperimentResult(
        experiment_id="x1",
        title="Test",
        columns=["workload", "pct"],
        rows=[{"workload": "mcf", "pct": 12.5}, {"workload": "swim", "pct": -3.0}],
        summary={"geomean": 4.25},
    )


class TestTraceIo:
    def test_roundtrip_workload_trace(self, tmp_path):
        trace = get_workload("mcf").trace(length=400)
        path = tmp_path / "mcf.trace"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert len(loaded) == len(trace)
        for a, b in zip(trace, loaded):
            assert (a.pc, a.op, a.srcs, a.dst, a.addr, a.value, a.taken) == (
                b.pc,
                b.op,
                b.srcs,
                b.dst,
                b.addr,
                b.value,
                b.taken,
            )

    def test_roundtrip_handmade_trace(self, tmp_path, builder):
        trace = [
            builder.load(dst=1, addr=0x8000, value=(1 << 63) + 5),
            builder.store(addr=0x9000, srcs=(1,), value=0),
            builder.branch(taken=False, srcs=(1,)),
            builder.int_alu(dst=2, srcs=(1,)),
        ]
        path = tmp_path / "hand.trace"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded[0].value == (1 << 63) + 5
        assert loaded[1].addr == 0x9000
        assert loaded[2].taken is False
        assert loaded[3].addr is None

    def test_loaded_trace_simulates_identically(self, tmp_path):
        from repro import MachineConfig, simulate

        trace = get_workload("crafty").trace(length=400)
        path = tmp_path / "c.trace"
        save_trace(trace, path)
        loaded = load_trace(path)
        a = simulate(trace, MachineConfig.hpca05_baseline(warm_caches=False))
        b = simulate(loaded, MachineConfig.hpca05_baseline(warm_caches=False))
        assert a.cycles == b.cycles

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.trace"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_trace(path)

    def test_truncated_rejected(self, tmp_path, builder):
        trace = [builder.int_alu(dst=1) for _ in range(10)]
        path = tmp_path / "t.trace"
        save_trace(trace, path)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(ValueError, match="truncated"):
            load_trace(path)

    def test_too_short_rejected(self, tmp_path):
        path = tmp_path / "s.trace"
        path.write_bytes(b"RV")
        with pytest.raises(ValueError, match="too short"):
            load_trace(path)


def _raw_file(tmp_path, records: list[bytes]) -> "object":
    """A trace file from hand-packed record bytes (bypassing save_trace)."""
    path = tmp_path / "raw.trace"
    path.write_bytes(
        _HEADER.pack(_MAGIC, _VERSION, len(records)) + b"".join(records)
    )
    return path


class TestTraceIngestion:
    """The hardened ingestion layer: streaming, validation, TraceSet."""

    def test_roundtrip_every_opclass(self, tmp_path, builder):
        from repro.isa import OpClass

        trace = [
            builder.int_alu(dst=1),
            builder.int_mul(dst=2, srcs=(1,)),
            builder.fp_alu(dst=3, srcs=(2,)),
            builder.fp_mul(dst=4, srcs=(3, 2)),
            builder.load(dst=5, addr=0x4000, value=77),
            builder.store(addr=0x4040, srcs=(5,), value=77),
            builder.branch(taken=True, srcs=(1,)),
        ]
        assert {i.op for i in trace} == set(OpClass)
        path = tmp_path / "all.trace"
        save_trace(trace, path)
        loaded = load_trace(path)
        for a, b in zip(trace, loaded):
            assert (a.pc, a.op, a.srcs, a.dst, a.addr, a.value, a.taken) == (
                b.pc, b.op, b.srcs, b.dst, b.addr, b.value, b.taken,
            )

    def test_iter_trace_streams(self, tmp_path, builder):
        trace = [builder.int_alu(dst=1) for _ in range(30)]
        path = tmp_path / "s.trace"
        save_trace(trace, path)
        it = iter_trace(path)
        assert next(it).op is trace[0].op
        assert sum(1 for _ in it) == 29

    def test_unknown_opclass_names_the_record(self, tmp_path):
        good = _RECORD.pack(0x1000, 0, 1, 0, 0, b"\0\0\0", 0, 0, 0, 0)
        bad = _RECORD.pack(0x1004, 99, 1, 0, 0, b"\0\0\0", 0, 0, 0, 0)
        path = _raw_file(tmp_path, [good, bad])
        with pytest.raises(TraceFormatError, match="record 1: unknown op class 99"):
            load_trace(path)

    def test_register_out_of_range_names_the_record(self, tmp_path):
        bad = _RECORD.pack(0x1000, 0, 80, 0, 0, b"\0\0\0", 0, 0, 0, 0)
        path = _raw_file(tmp_path, [bad])
        with pytest.raises(TraceFormatError, match="record 0: .*register 80"):
            load_trace(path)

    def test_source_count_overflow_rejected(self, tmp_path):
        bad = _RECORD.pack(0x1000, 0, 1, 4, 0, b"\1\2\3", 0, 0, 0, 0)
        path = _raw_file(tmp_path, [bad])
        with pytest.raises(TraceFormatError, match="source count 4"):
            load_trace(path)

    def test_memory_op_without_address_rejected(self, tmp_path):
        bad = _RECORD.pack(0x1000, 4, 1, 0, 0, b"\0\0\0", 0, 0, 0, 0)
        path = _raw_file(tmp_path, [bad])
        with pytest.raises(TraceFormatError, match="LOAD without an address"):
            load_trace(path)

    def test_branch_without_outcome_rejected(self, tmp_path):
        bad = _RECORD.pack(0x1000, 6, -1, 0, 0, b"\0\0\0", 0, 0, 0, 0)
        path = _raw_file(tmp_path, [bad])
        with pytest.raises(TraceFormatError, match="BRANCH without a taken"):
            load_trace(path)

    def test_trailing_bytes_rejected(self, tmp_path, builder):
        path = tmp_path / "t.trace"
        save_trace([builder.int_alu(dst=1)], path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(TraceFormatError, match="trailing bytes"):
            load_trace(path)
        # whole records beyond the header's count are trailing bytes too
        save_trace([builder.int_alu(dst=1) for _ in range(3)], path)
        data = path.read_bytes()
        path.write_bytes(_HEADER.pack(_MAGIC, _VERSION, 2) + data[_HEADER.size:])
        with pytest.raises(TraceFormatError, match="trailing bytes after 2 records"):
            load_trace(path)

    def test_error_is_still_a_value_error(self, tmp_path):
        path = tmp_path / "j.trace"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError):
            load_trace(path)

    def test_load_trace_set(self, tmp_path, builder):
        a = [builder.int_alu(dst=1) for _ in range(5)]
        b = [builder.int_alu(dst=2) for _ in range(7)]
        save_trace(a, tmp_path / "first.trace")
        save_trace(b, tmp_path / "second.trace")
        ts = load_trace_set(
            [tmp_path / "first.trace", tmp_path / "second.trace"]
        )
        assert len(ts) == 2
        assert ts.labels == ("first", "second")
        assert ts.name == "first+second"
        assert [len(t) for t in ts.traces] == [5, 7]

    def test_trace_set_validation(self):
        with pytest.raises(ValueError, match="at least one trace"):
            TraceSet(name="x", traces=(), labels=())
        with pytest.raises(ValueError, match="one-to-one"):
            TraceSet(name="x", traces=([],), labels=("a", "b"))

    def test_load_trace_set_needs_paths(self):
        with pytest.raises(ValueError, match="at least one path"):
            load_trace_set([])


#: a byte offset, half the time inside the 16-byte header; offsets wrap
#: to the file's current length
_OFFSET = st.one_of(st.sampled_from(range(16)), st.integers(0, 7000))

#: one edit to a trace file's bytes: overwrite or insert bytes at an
#: offset, truncate there, or rewrite the header's record count
_EDIT = st.one_of(
    st.tuples(st.just("overwrite"), _OFFSET, st.binary(min_size=1, max_size=8)),
    st.tuples(st.just("insert"), _OFFSET, st.binary(min_size=1, max_size=40)),
    st.tuples(st.just("truncate"), _OFFSET, st.just(b"")),
    st.tuples(st.just("count"), st.integers(0, 400), st.just(b"")),
)


def _apply(data: bytes, edits) -> bytes:
    buf = bytearray(data)
    for kind, n, blob in edits:
        if kind == "count":  # n is the new record count
            buf[8:16] = n.to_bytes(8, "little")
            continue
        at = n % (len(buf) + 1)
        if kind == "overwrite":
            buf[at:at + len(blob)] = blob
        elif kind == "insert":
            buf[at:at] = blob
        else:
            del buf[at:]
    return bytes(buf)


@pytest.fixture(scope="module")
def mcf_trace_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "mcf.trace"
    save_trace(get_workload("mcf").trace(length=200, seed=0), path)
    return path.read_bytes()


class TestTraceFuzz:
    """Randomly damaged trace files: the reader either loads exactly
    what the header promises or raises TraceFormatError, nothing else."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(edits=st.lists(_EDIT, min_size=1, max_size=3))
    def test_damaged_file_loads_cleanly_or_raises_trace_format_error(
        self, tmp_path_factory, mcf_trace_bytes, edits
    ):
        data = _apply(mcf_trace_bytes, edits)
        path = tmp_path_factory.getbasetemp() / "damaged.trace"
        path.write_bytes(data)
        try:
            loaded = load_trace(path)
        except TraceFormatError:
            return
        count = _HEADER.unpack(data[:_HEADER.size])[2]
        assert len(loaded) == count
        assert len(data) == _HEADER.size + count * _RECORD.size


class TestExport:
    def test_result_json_roundtrip(self, tmp_path):
        path = tmp_path / "r.json"
        result_to_json(sample_result(), path)
        assert json.loads(path.read_text()) == result_to_dict(sample_result())

    def test_result_to_dict_is_serializable(self):
        json.dumps(result_to_dict(sample_result()))

    def test_result_csv(self, tmp_path):
        text = result_to_csv(sample_result())
        lines = text.strip().splitlines()
        assert lines[0] == "workload,pct"
        assert lines[1] == "mcf,12.5"
        assert any(line.startswith("# geomean") for line in lines)


class TestCli:
    def run_cli(self, argv, capsys):
        from repro.__main__ import main

        code = main(argv)
        return code, capsys.readouterr().out

    def test_workloads_listing(self, capsys):
        code, out = self.run_cli(["workloads"], capsys)
        assert code == 0
        assert "mcf" in out and "swim" in out

    def test_workloads_suite_filter(self, capsys):
        code, out = self.run_cli(["workloads", "--suite", "fp"], capsys)
        assert code == 0
        assert "swim" in out and "mcf" not in out

    def test_run_command(self, capsys):
        code, out = self.run_cli(
            ["run", "crafty", "--machine", "baseline", "--length", "500"], capsys
        )
        assert code == 0
        assert "useful IPC" in out
        # the header counts the built config's contexts, not --threads
        assert out.startswith("crafty on baseline (1 context)\n")

    def test_run_mtvp_with_options(self, capsys):
        code, out = self.run_cli(
            [
                "run", "mcf", "--machine", "mtvp", "--threads", "4",
                "--predictor", "oracle", "--selector", "always",
                "--length", "500",
            ],
            capsys,
        )
        assert code == 0
        assert "spawns" in out

    def test_experiment_unknown_id(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["experiment", "fig99"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument id: unknown experiment 'fig99'; known: fig1," in captured.err

    def test_trace_command(self, tmp_path, capsys):
        out_path = tmp_path / "x.trace"
        code, out = self.run_cli(
            ["trace", "crafty", str(out_path), "--length", "300"], capsys
        )
        assert code == 0
        assert out_path.exists()
        assert len(load_trace(out_path)) == 300

    def test_run_mode_alias(self, capsys):
        code, out = self.run_cli(
            ["run", "mcf", "--mode", "spmt", "--threads", "4",
             "--length", "500"], capsys
        )
        assert code == 0
        assert "useful IPC" in out

    def test_run_ingested_traces_smt(self, tmp_path, capsys):
        for i in range(2):
            self.run_cli(
                ["trace", "mcf", str(tmp_path / f"p{i}.trace"),
                 "--length", "400", "--seed", str(i)], capsys
            )
        for threads in ("2", "8"):
            # one context per file, whatever --threads asks for
            code, out = self.run_cli(
                ["run", "--traces", str(tmp_path / "p0.trace"),
                 str(tmp_path / "p1.trace"), "--machine", "smt",
                 "--threads", threads], capsys
            )
            assert code == 0
            assert out.splitlines()[0] == "p0, p1 on smt (2 contexts)"
            assert "ctx 0 [p0]" in out and "ctx 1 [p1]" in out
            assert "ctx 2" not in out

    def test_run_ingested_single_trace(self, tmp_path, capsys):
        self.run_cli(
            ["trace", "crafty", str(tmp_path / "c.trace"),
             "--length", "300"], capsys
        )
        code, out = self.run_cli(
            ["run", "--traces", str(tmp_path / "c.trace"),
             "--machine", "baseline"], capsys
        )
        assert code == 0
        assert "useful IPC" in out

    def test_run_traces_reject_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.trace"
        bad.write_bytes(b"NOPE" + b"\x00" * 60)
        with pytest.raises(SystemExit) as exc:
            self.run_cli(["run", "--traces", str(bad), "--machine", "baseline"], capsys)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: cannot ingest traces" in captured.err

    def test_run_traces_and_workload_conflict(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            self.run_cli(["run", "mcf", "--traces", "x.trace"], capsys)
        assert exc.value.code == 2
        assert "give one or the other" in capsys.readouterr().err

    def test_run_without_workload_or_traces(self, capsys):
        with pytest.raises(SystemExit) as exc:
            self.run_cli(["run"], capsys)
        assert exc.value.code == 2
        assert "workload name is required" in capsys.readouterr().err


class TestCliClosedStdout:
    """A reader that closes stdout early ends the command quietly."""

    @pytest.mark.parametrize("argv", [
        ["workloads"],
        ["run", "mcf", "--machine", "baseline", "--length", "500"],
    ], ids=["workloads", "run"])
    def test_a_closed_pipe_exits_1_with_nothing_on_stderr(self, argv, tmp_path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        env["REPRO_CACHE_DIR"] = str(tmp_path)
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to stdout now fails with EPIPE
        try:
            done = subprocess.run(
                [sys.executable, "-m", "repro", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (1, b"")


_SPEC = "sweeps/store_buffer.toml"
_SEARCH = "sweeps/search_smoke.toml"

#: every count/length flag on every subcommand that has it: (argv, bad value)
_COUNT_FLAGS = [
    *[(["run", "mcf", flag], bad)
      for flag in ("--length", "--threads", "--sample") for bad in ("0", "-1")],
    *[(["report", "mcf", flag], "0") for flag in ("--length", "--threads")],
    (["experiment", "fig5", "--length"], "0"),
    (["trace", "mcf", "out.trace", "--length"], "0"),
    *[(["sweep", verb, _SPEC, flag], bad)
      for verb in ("run", "resume")
      for flag in ("--seeds", "--length", "--points", "--sample")
      for bad in ("0", "-1")],
    *[(["sweep", verb, _SPEC, flag], "0")
      for verb in ("status", "report") for flag in ("--seeds", "--length")],
    *[(["search", verb, _SEARCH, "--points"], bad)
      for verb in ("run", "resume", "status", "report") for bad in ("0", "-1")],
    (["run", "mcf", "--warmup"], "-1"),
    *[(["sweep", verb, _SPEC, "--warmup"], "-1") for verb in ("run", "resume")],
    *[([cmd, verb, spec, "--retries"], "-1")
      for cmd, spec in (("sweep", _SPEC), ("search", _SEARCH))
      for verb in ("run", "resume")],
]

#: lease periods: a positive, finite number of seconds
_SECONDS_FLAGS = [
    ([cmd, verb, spec, flag], bad)
    for cmd, spec in (("sweep", _SPEC), ("search", _SEARCH))
    for verb in ("run", "resume")
    for flag in ("--heartbeat", "--stale-after")
    for bad in ("0", "-1", "-5", "nan", "inf")
]


class TestCliCountValidation:
    """Counts and lengths are validated by the parser: exit 2, no traceback."""

    @pytest.mark.parametrize(
        "argv,bad", _COUNT_FLAGS, ids=lambda v: " ".join(v) if isinstance(v, list) else v
    )
    def test_non_positive_count_is_a_usage_error(self, argv, bad, capsys):
        from repro.__main__ import build_parser

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*argv, bad])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[-1]}: must be at least" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv,bad", _SECONDS_FLAGS,
        ids=lambda v: " ".join(v) if isinstance(v, list) else v,
    )
    def test_non_positive_seconds_is_a_usage_error(self, argv, bad, capsys):
        from repro.__main__ import build_parser

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*argv, bad])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[-1]}: must be a finite number of seconds > 0" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,dest,value", [
        (["run", "mcf", "--length", "1"], "length", 1),
        (["run", "mcf", "--warmup", "0"], "warmup", 0),
        (["sweep", "run", _SPEC, "--warmup", "0"], "warmup", 0),
        (["sweep", "run", _SPEC, "--points", "1"], "points", 1),
        (["sweep", "run", _SPEC, "--retries", "0"], "retries", 0),
        (["search", "run", _SEARCH, "--heartbeat", "0.25"], "heartbeat", 0.25),
        (["sweep", "resume", _SPEC, "--stale-after", "1e-3"], "stale_after", 0.001),
    ])
    def test_smallest_valid_value_parses(self, argv, dest, value):
        from repro.__main__ import build_parser

        assert getattr(build_parser().parse_args(argv), dest) == value

    @pytest.mark.parametrize("argv", [
        ["run", "mcf", "--length", "0"],
        ["sweep", "run", _SPEC, "--points", "-1"],
        ["sweep", "run", _SPEC, "--seeds", "0"],
        ["sweep", "run", _SPEC, "--heartbeat", "0"],
        ["search", "resume", _SEARCH, "--stale-after", "nan"],
        ["search", "run", _SEARCH, "--retries", "-1"],
        ["experiment", "nosuch"],
        ["run"],
        ["run", "mcf", "--traces", "x.rvpt"],
        ["run", "--traces", "x.rvpt", "--trace", "t.json"],
        ["run", "--traces", "x.rvpt", "--profile", "p.prof"],
        ["cache", "prune"],
    ])
    def test_main_exits_2_before_simulating(self, argv, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "usage: repro" in captured.err
        assert len([ln for ln in captured.err.splitlines() if "error:" in ln]) == 1
        assert captured.out == ""

    @pytest.mark.parametrize("content", [b"RVPT\x01\x00\x00", None], ids=["7-byte", "missing"])
    def test_unreadable_trace_file_is_one_line(self, content, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "short.rvpt"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(SystemExit) as exc:
            main(["run", "--traces", str(path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [ln for ln in captured.err.splitlines() if "error:" in ln]
        assert len(errors) == 1 and "cannot ingest traces" in errors[0]
        assert str(path) in errors[0]
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("extra", [
        ["--machine", "mtvp"],
        ["--machine", "smt", "--warmup", "100"],
    ], ids=" ".join)
    def test_traces_the_mode_cannot_run_are_one_line(self, extra, tmp_path, capsys):
        from repro.__main__ import main

        paths = [str(tmp_path / f"{name}.rvpt") for name in ("a", "b")]
        for seed, path in enumerate(paths):
            main(["trace", "mcf", path, "--length", "200", "--seed", str(seed)])
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["run", "--traces", *paths, *extra])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        (line,) = [ln for ln in captured.err.splitlines() if "error:" in ln]
        assert "cannot run ingested traces" in line

    @pytest.mark.parametrize("argv", [
        ["run", "nosuch", "--length", "100"],
        ["run", "nosuch"],
        ["report", "nosuch"],
        ["trace", "nosuch", "out.rvpt"],
    ], ids=" ".join)
    def test_unknown_workload_is_one_line(self, argv, capsys, tmp_path,
                                          monkeypatch):
        from repro.__main__ import main

        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        (line,) = [ln for ln in captured.err.splitlines() if "error:" in ln]
        assert line.endswith(
            "argument workload: unknown workload 'nosuch'; known: "
            + ", ".join(workload_names())
        )
        assert list(tmp_path.iterdir()) == []


class TestCliRunPaths:
    """``run``/``report`` build one RunSpec; caching subcommands share one rule."""

    def test_sampled_run_prints_the_run_spec_cycles(self, capsys):
        import functools

        from repro import MachineConfig
        from repro.__main__ import main
        from repro.harness import RunSpec

        assert main(["run", "mcf", "--length", "2000",
                     "--warmup", "1000", "--sample", "1500"]) == 0
        out = capsys.readouterr().out.splitlines()
        spec = RunSpec(
            "mtvp", functools.partial(MachineConfig.mtvp, 8),
            predictor_factory="wang-franklin", selector_factory="ilp-pred",
            warmup=1000, sample=1500,
        )
        cycles = spec.run("mcf", 2000, 0).summary().splitlines()[0]
        assert cycles.startswith("cycles ")
        assert cycles in out

    def test_run_has_no_jobs_flag(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["run", "mcf", "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["report", "mcf", "--length", "300"],
        ["experiment", "fig5", "--length", "300"],
        *[[cmd, verb, spec] for cmd, spec in (("sweep", "sweeps/warmup_smoke.toml"),
                                               ("search", _SEARCH))
          for verb in ("run", "resume")],
    ], ids=lambda argv: " ".join(argv[:2]))
    def test_unusable_cache_dir_exits_1(self, argv, tmp_path, capsys):
        from repro.__main__ import main

        blocker = tmp_path / "file"
        blocker.write_text("")
        db = tmp_path / "campaign.db"
        extra = ["--db", str(db)] if argv[0] in ("sweep", "search") else []
        with pytest.raises(SystemExit) as exc:
            main([*argv, *extra, "--cache-dir", str(blocker / "sub")])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("cannot use cache directory: ")
        assert "Traceback" not in captured.err
        assert not db.exists()  # rejected before any store is opened

    @pytest.mark.parametrize("argv", [
        [cmd, verb, spec] for cmd, spec in (("sweep", "sweeps/warmup_smoke.toml"),
                                             ("search", _SEARCH))
        for verb in ("run", "resume")
    ], ids=lambda argv: " ".join(argv[:2]))
    def test_unusable_checkpoint_dir_exits_1(self, argv, tmp_path, capsys):
        from repro.__main__ import main

        blocker = tmp_path / "file"
        blocker.write_text("")
        db = tmp_path / "campaign.db"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--db", str(db), "--no-cache", "--checkpoint-dir", str(blocker)])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("cannot use checkpoint directory: ")
        assert "Traceback" not in captured.err
        assert not db.exists()  # rejected before any store is opened


class TestCliCheckpointDir:
    """``run`` keeps warmed state in the keyed checkpoint store."""

    def test_second_run_restores_the_stored_warmup(self, tmp_path, monkeypatch, capsys):
        from repro.__main__ import main

        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path))
        argv = ["run", "mcf", "--machine", "baseline",
                "--warmup", "4000", "--length", "2000"]

        def stats_lines():
            out = capsys.readouterr().out.splitlines()
            return [line for line in out if not line.startswith("sim throughput")]

        assert main(argv) == 0
        first = stats_lines()
        (entry,) = tmp_path.glob("*.ckpt")
        written = entry.stat()
        assert main(argv) == 0
        second = stats_lines()
        assert "cycles               15636" in first
        assert second == first
        assert list(tmp_path.glob("*.ckpt")) == [entry]
        now = entry.stat()
        assert (now.st_ino, now.st_mtime_ns) == (written.st_ino, written.st_mtime_ns)

    def test_run_has_no_checkpoint_file_flags(self, capsys):
        from repro.__main__ import main

        for flag in ("--checkpoint", "--restore"):
            with pytest.raises(SystemExit) as exc:
                main(["run", "mcf", flag, "x.ckpt"])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def _subparsers(parser, path=()):
    """``(command path, parser)`` for every (sub-)subcommand parser."""
    import argparse

    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield (*path, name), sub
                yield from _subparsers(sub, (*path, name))


#: flags whose meaning differs by subcommand on purpose: ``--json`` is a
#: switch on ``status`` (print JSON) and a path on ``experiment``/``report``
_DISTINCT_FLAGS = {"--json"}

#: execution and store flags every campaign-style subcommand shares
_SHARED_FLAGS = ("--retries", "--jobs", "--no-cache", "--cache-dir",
                 "--checkpoint-dir", "--stale-after", "--heartbeat")


class TestCliFlagSurface:
    def test_a_flag_means_the_same_on_every_subcommand(self):
        from repro.__main__ import build_parser

        seen = {}
        for path, parser in _subparsers(build_parser()):
            for action in parser._actions:
                for flag in action.option_strings:
                    if flag in ("-h", "--help") or flag in _DISTINCT_FLAGS:
                        continue
                    shape = (action.dest, action.type, action.default,
                             action.choices, action.metavar, action.nargs)
                    first = seen.setdefault(flag, (path, shape))
                    assert shape == first[1], (
                        f"{flag}: {' '.join(path)} {shape} != "
                        f"{' '.join(first[0])} {first[1]}"
                    )
        assert set(_SHARED_FLAGS) <= set(seen)

    def test_each_shared_flag_is_declared_once(self):
        import inspect

        import repro.__main__ as cli

        source = inspect.getsource(cli)
        for flag in _SHARED_FLAGS:
            assert source.count(f'"{flag}"') == 1, flag

    def test_machine_choices_are_the_preset_table(self):
        from repro.__main__ import build_parser
        from repro.sweep import PRESETS

        for path, parser in _subparsers(build_parser()):
            for action in parser._actions:
                if "--machine" in action.option_strings:
                    assert sorted(action.choices) == sorted(PRESETS), path


_BAD_AXIS = """
[sweep]
name = "bad_axis"
workloads = ["crafty"]
lengths = [300]
seeds = 1

[base]
machine = "mtvp"
threads = 2
predictor = "oracle"

[axes]
{axes}
"""


class TestCliSweepSpecs:
    """A spec's recipes are checked at load; a failed row fails the run."""

    def write(self, tmp_path, axes):
        path = tmp_path / "spec.toml"
        path.write_text(_BAD_AXIS.format(axes=axes))
        return path

    def test_bad_axis_value_exits_2_before_opening_the_db(self, tmp_path, capsys):
        from repro.__main__ import main

        spec = self.write(tmp_path, "rob_size = [0, 256]")
        db = tmp_path / "s.db"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "run", str(spec), "--db", str(db), "--no-cache"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro: error: {spec}: ")
        assert "rob_size must be >= 1, got 0" in err
        assert not db.exists()

    @pytest.mark.parametrize("verb", ["run", "resume"])
    def test_failed_row_exits_1(self, verb, tmp_path, capsys, monkeypatch):
        from repro.__main__ import main
        from repro.sweep import load_spec
        from tests.conftest import fail_runs_of

        spec = self.write(tmp_path, 'predictor = ["oracle", "wang-franklin"]')
        fail_runs_of(monkeypatch, load_spec(spec).expand()[1].point_id[:8])
        code = main(["sweep", verb, str(spec), "--db", str(tmp_path / "s.db"),
                     "--no-cache", "--retries", "0", "--jobs", "1"])
        out = capsys.readouterr().out
        assert "partial (1 failed)" in out
        assert code == 1

    @pytest.mark.parametrize("table", ["axes", "base", "baseline"])
    def test_a_table_that_is_not_a_table_exits_2(self, table, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "spec.toml"
        path.write_text(f'[sweep]\nname = "x"\n{table} = ["rob_size"]\n')
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "status", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err == f"repro: error: {path}: {table} must be a table of recipe keys\n"
