"""CLI behaviours that come from wiring a feature once for every command:
the ``--fault-report`` writer, the one-simulator ``simulate --vcd``, the
shared checkpoint-flag check of ``run``/``campaign`` and the shared
``--cycles``/``--seed`` check."""

import json

import pytest

from repro import RTLFlow
from repro.analysis.report import format_table
from repro.cli import main
from repro.waveform.vcd import dump_vcd

from tests.conftest import COUNTER_V


def test_run_fault_report_without_isolation(tmp_path, capsys):
    """``run --fault-report`` writes the report even when no lane could be
    quarantined, as ``campaign --fault-report`` does."""
    path = tmp_path / "fr.json"
    assert main(["run", "counter", "-n", "4", "-c", "5",
                 "--fault-report", str(path)]) == 0
    assert f"wrote {path}" in capsys.readouterr().out
    report = json.loads(path.read_text())
    assert report["faulted_lanes"] == [] and report["faults"] == []
    assert report["n"] == report["active_lanes"] == 4
    assert report["design"] == "counter" and report["fault_plan"] is None


def test_run_fault_report_with_injected_fault(tmp_path, capsys):
    path = tmp_path / "fr.json"
    assert main(["run", "counter", "-n", "4", "-c", "5",
                 "--inject-lane-fault", "2:1", "--fault-report", str(path)]) == 0
    assert "quarantined 1/4 lanes:" in capsys.readouterr().out
    report = json.loads(path.read_text())
    assert report["faulted_lanes"] == [1]
    assert report["fault_plan"]["lane_faults"] == [
        {"cycle": 2, "lane": 1, "reason": "injected"}]


@pytest.mark.parametrize("argv", [
    ["run", "counter", "-n", "8"],
    ["profile", "counter", "-n", "8"],
    ["campaign", "counter", "-n", "8"],
])
def test_negative_cycles_is_one_error_line(argv, capsys, monkeypatch):
    """A negative or zero ``--cycles`` is rejected before the design is
    looked up, so before any stimulus is built."""
    import repro.designs

    monkeypatch.setattr(repro.designs, "get_design",
                        lambda *a, **k: pytest.fail("design looked up"))
    for cycles in ("-5", "0"):
        assert main(argv + ["--cycles", cycles]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: cycles must be >= 1, got {cycles}\n"


@pytest.mark.parametrize("argv", [
    ["run", "counter", "-n", "8", "--cycles", "20"],
    ["profile", "counter", "-n", "8", "--cycles", "20"],
    ["campaign", "counter", "-n", "8", "--cycles", "20"],
])
def test_negative_seed_is_one_error_line(argv, capsys, monkeypatch):
    """A negative ``--seed`` is an input error like ``--cycles``, not a
    numpy traceback or a failed shard."""
    import repro.designs

    monkeypatch.setattr(repro.designs, "get_design",
                        lambda *a, **k: pytest.fail("design looked up"))
    assert main(argv + ["--seed", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: seed must be >= 0, got -1\n"


def test_simulate_vcd_runs_one_simulator(tmp_path, capsys, monkeypatch):
    """The VCD and the printed final values come from one simulator and
    match what two separate simulators over the same stimulus give."""
    src = tmp_path / "counter.v"
    src.write_text(COUNTER_V)
    n, cycles, seed, lane = 6, 30, 3, 2

    flow = RTLFlow.from_files([str(src)], "counter")
    stim = flow.random_stimulus(n, cycles, seed=seed)
    outs = flow.simulator(n=n).run(stim, cycles=cycles)
    ref_vcd = tmp_path / "ref.vcd"
    dump_vcd(str(ref_vcd), flow.simulator(n=n), stim, lane=lane,
             cycles=cycles)
    table = format_table(
        ["output", "final values (hex, first lanes)"],
        [[name, " ".join(format(int(v), "x") for v in values)]
         for name, values in outs.items()],
        title=f"counter: {n} stimulus x {cycles} cycles",
    )

    calls = []
    real = RTLFlow.simulator

    def counting(self, *a, **kw):
        calls.append(1)
        return real(self, *a, **kw)

    monkeypatch.setattr(RTLFlow, "simulator", counting)
    vcd = tmp_path / "w.vcd"
    assert main(["simulate", str(src), "--top", "counter", "-n", str(n),
                 "-c", str(cycles), "--seed", str(seed), "--vcd", str(vcd),
                 "--vcd-lane", str(lane)]) == 0
    assert len(calls) == 1
    out = capsys.readouterr().out
    assert out.startswith(table + "\n")
    assert f"wrote {vcd} (lane {lane})" in out
    assert vcd.read_bytes() == ref_vcd.read_bytes()


def test_run_checkpoint_every_needs_checkpoint_dir(capsys):
    assert main(["run", "counter", "-n", "4", "-c", "4",
                 "--checkpoint-every", "2"]) == 2
    err = capsys.readouterr().err
    assert "--checkpoint-every requires --checkpoint-dir" in err


def test_campaign_checkpoint_every_needs_checkpoint_dir(tmp_path, capsys):
    """Silently ignored before, and on ``--store`` the interval still
    changed every shard's content key."""
    assert main(["campaign", "counter", "-n", "8", "-c", "4", "--workers",
                 "0", "--store", str(tmp_path / "store"),
                 "--checkpoint-every-seconds", "1"]) == 2
    err = capsys.readouterr().err
    assert "--checkpoint-every-seconds requires --checkpoint-dir" in err
    assert not (tmp_path / "store").exists()
