"""Tests for trace I/O, result export, and the command-line interface."""

import json

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.harness.experiments import ExperimentResult
from repro.harness.export import (
    load_result_json,
    result_to_csv,
    result_to_dict,
    result_to_json,
    stats_to_dict,
)
from repro.workloads import get_workload
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
    def test_stats_to_dict(self):
        from repro.core import SimStats

        d = stats_to_dict(SimStats(cycles=10, useful_instructions=25))
        assert d["useful_ipc"] == 2.5
        assert "memory" in d["level_counts"]
        json.dumps(d)  # must be serializable

    def test_result_json_roundtrip(self, tmp_path):
        path = tmp_path / "r.json"
        result_to_json(sample_result(), path)
        back = load_result_json(path)
        assert back.rows == sample_result().rows
        assert back.summary == sample_result().summary

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
        code, out = self.run_cli(["experiment", "fig99"], capsys)
        assert code == 1
        assert "unknown experiment" in out

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
        code, out = self.run_cli(
            ["run", "--traces", str(tmp_path / "p0.trace"),
             str(tmp_path / "p1.trace"), "--machine", "smt",
             "--threads", "2"], capsys
        )
        assert code == 0
        assert "ctx 0 [p0]" in out and "ctx 1 [p1]" in out

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
        code, out = self.run_cli(
            ["run", "--traces", str(bad), "--machine", "baseline"], capsys
        )
        assert code == 1
        assert "cannot ingest traces" in out

    def test_run_traces_and_workload_conflict(self, tmp_path, capsys):
        code, out = self.run_cli(
            ["run", "mcf", "--traces", "x.trace"], capsys
        )
        assert code == 1
        assert "give one or the other" in out

    def test_run_without_workload_or_traces(self, capsys):
        code, out = self.run_cli(["run"], capsys)
        assert code == 1
        assert "workload name is required" in out


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
    ])
    def test_main_exits_2_before_simulating(self, argv, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "usage: repro" in captured.err
        assert captured.out == ""
