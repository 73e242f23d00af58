"""CLI behaviours that come from wiring a feature once for every command:
the ``--fault-report`` writer, the one-simulator ``simulate --vcd`` and the
shared checkpoint-flag check of ``run``/``campaign``."""

import json

import pytest

from repro import RTLFlow
from repro.analysis.report import format_table
from repro.cli import main
from repro.waveform.vcd import dump_vcd

from tests.conftest import COUNTER_V


@pytest.mark.parametrize("groups", ["1", "2"])
def test_run_fault_report_without_isolation(tmp_path, capsys, groups):
    """``run --fault-report`` writes the report even when no lane could be
    quarantined, as ``campaign --fault-report`` does."""
    path = tmp_path / "fr.json"
    assert main(["run", "counter", "-n", "4", "-c", "5", "--groups", groups,
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
