"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import main

from tests.conftest import COUNTER_V, MEMDUT_V


@pytest.fixture
def counter_v(tmp_path):
    p = tmp_path / "counter.v"
    p.write_text(COUNTER_V)
    return str(p)


class TestStats:
    def test_prints_graph_stats(self, counter_v, capsys):
        assert main(["stats", counter_v, "--top", "counter"]) == 0
        out = capsys.readouterr().out
        assert "RTL graph statistics" in out
        assert "comb_nodes" in out
        assert "default task graph" in out

    def test_unknown_top_module(self, counter_v, capsys):
        assert main(["stats", counter_v, "--top", "nope"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_stats_json_reports_fused_program_sizes(self, counter_v, capsys):
        import json

        assert main(["stats", "--json", "--design", "nvdla"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"top", "graph", "taskgraph", "fused"}
        assert payload["top"] == "nvdla_lite"
        fused = payload["fused"]
        assert set(fused) == {
            "statements", "temporaries", "helper_sites", "unpack_sites",
            "mem_read_sites", "rolled_runs", "rolled_members", "lines",
            "keyed_selects", "tables", "table_entries", "table_build_s"}
        assert fused["temporaries"] <= 80 and fused["unpack_sites"] <= 10
        assert fused["statements"] <= 150 and fused["mem_read_sites"] == 0
        assert fused["rolled_runs"] >= 1
        assert fused["helper_sites"]["pk.unpack_u8"] == fused["unpack_sites"]
        # The per-helper counts the constant-aware lowering is judged by.
        assert main(["stats", "--json", "--design", "crypto"]) == 0
        sites = json.loads(capsys.readouterr().out)["fused"]["helper_sites"]
        assert "wv.shl" not in sites and sites["wv.rotl_const"] >= 1
        # Source files still work, and neither form is an error to omit.
        assert main(["stats", counter_v, "--top", "counter", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["fused"]["rolled_runs"] == 0
        assert main(["stats", counter_v]) == 2
        assert "--design" in capsys.readouterr().err


class TestTranspile:
    def test_writes_kernel_module(self, counter_v, tmp_path, capsys):
        out_py = str(tmp_path / "k.py")
        assert main(["transpile", counter_v, "--top", "counter",
                     "-o", out_py]) == 0
        text = open(out_py).read()
        assert "def task_0" in text
        compile(text, out_py, "exec")  # generated module must be valid

    def test_scalar_output(self, counter_v, tmp_path):
        out_py = str(tmp_path / "k.py")
        sc_py = str(tmp_path / "s.py")
        assert main(["transpile", counter_v, "--top", "counter",
                     "-o", out_py, "--scalar-output", sc_py]) == 0
        assert "def comb_all" in open(sc_py).read()


class TestSimulate:
    def test_random_run(self, counter_v, capsys):
        assert main(["simulate", counter_v, "--top", "counter",
                     "-n", "4", "-c", "20"]) == 0
        out = capsys.readouterr().out
        assert "4 stimulus x 20 cycles" in out
        assert "count" in out

    def test_vcd_dump(self, counter_v, tmp_path, capsys):
        vcd = str(tmp_path / "w.vcd")
        assert main(["simulate", counter_v, "--top", "counter",
                     "-n", "4", "-c", "20", "--vcd", vcd]) == 0
        assert os.path.exists(vcd)
        assert "$enddefinitions" in open(vcd).read()

    def test_stimulus_files(self, counter_v, tmp_path, capsys):
        from repro.stimulus.format import write_stimulus_file

        paths = []
        for i in range(3):
            p = str(tmp_path / f"s{i}.stim")
            rows = [[1, 0]] + [[0, 1]] * 5
            write_stimulus_file(p, ["rst", "en"], rows)
            paths.append(p)
        assert main(["simulate", counter_v, "--top", "counter", "-c", "6",
                     "--stimulus", *paths]) == 0
        out = capsys.readouterr().out
        assert "3 stimulus" in out

    @pytest.mark.parametrize("executor", ["graph", "graph-fused", "stream"])
    def test_executors(self, counter_v, executor):
        assert main(["simulate", counter_v, "--top", "counter", "-n", "2",
                     "-c", "5", "--executor", executor]) == 0


class TestCoverage:
    def test_report(self, counter_v, capsys):
        assert main(["coverage", counter_v, "--top", "counter",
                     "-n", "16", "-c", "600"]) == 0
        out = capsys.readouterr().out
        assert "toggle coverage" in out

    def test_threshold_gate(self, counter_v):
        # 2 cycles cannot reach 99% coverage -> nonzero exit.
        assert main(["coverage", counter_v, "--top", "counter",
                     "-n", "2", "-c", "2", "--threshold", "99"]) == 1

    def test_ports_only(self, counter_v, capsys):
        assert main(["coverage", counter_v, "--top", "counter", "-n", "4",
                     "-c", "10", "--ports-only"]) == 0


class TestTelemetryFlags:
    def test_simulate_trace_and_metrics_json(self, counter_v, tmp_path,
                                             capsys):
        import json

        trace = str(tmp_path / "run.trace.json")
        metrics = str(tmp_path / "run.metrics.json")
        assert main(["simulate", counter_v, "--top", "counter",
                     "-n", "4", "-c", "10", "--executor", "graph",
                     "--trace-json", trace, "--metrics-json", metrics]) == 0
        doc = json.load(open(trace))
        assert doc["traceEvents"]
        assert any(e.get("ph") == "X" for e in doc["traceEvents"])
        snap = json.load(open(metrics))
        assert snap["counters"]["sim.cycles"]["value"] == 10
        assert snap["kernels"]  # per-task kernel times


class TestProfile:
    def test_profile_emits_trace_and_metrics(self, tmp_path, capsys):
        import json

        trace = str(tmp_path / "p.trace.json")
        metrics = str(tmp_path / "p.metrics.json")
        assert main(["profile", "counter", "-n", "8", "-c", "12",
                     "--mcmc-iters", "2", "--timeline", "--executor", "graph",
                     "--trace-json", trace, "--metrics-json", metrics]) == 0
        out = capsys.readouterr().out
        assert "profile: counter" in out
        assert "MCMC:" in out

        doc = json.load(open(trace))
        xs = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        names = {e["name"] for e in xs}
        assert {"parse+elaborate", "transpile+compile", "evaluate"} <= names
        for e in xs:
            assert set(e) >= {"name", "ph", "ts", "dur", "pid", "tid"}

        snap = json.load(open(metrics))
        assert snap["kernels"]  # per-task kernel times
        assert any(k.startswith("task_") for k in snap["kernels"])
        assert any(k.startswith("mem.pool") for k in snap["gauges"])
        assert snap["counters"]["mcmc.evaluations"]["value"] > 0
        assert "mcmc.acceptance_rate" in snap["gauges"]
        assert snap["gauges"]["device.kernel_launches"]["value"] >= 0

    def test_profile_mcmc_needs_a_task_replay_engine(self, tmp_path, capsys):
        trace = str(tmp_path / "p.trace.json")
        assert main(["profile", "counter", "-n", "4", "-c", "4",
                     "--mcmc-iters", "2", "--trace-json", trace]) == 2
        err = capsys.readouterr().err
        assert "--executor graph|stream" in err
        assert not os.path.exists(trace)

    def test_profile_unknown_design(self, capsys):
        assert main(["profile", "nope"]) == 2
        assert "error:" in capsys.readouterr().err


class TestDesigns:
    def test_lists_bundled(self, capsys):
        assert main(["designs"]) == 0
        out = capsys.readouterr().out
        for name in ("counter", "riscv_mini", "spinal", "nvdla"):
            assert name in out


class TestMemoryLoad:
    def test_load_program_image(self, tmp_path, capsys):
        from repro.designs import riscv_mini
        from repro.stimulus.memimage import write_hex_image

        v = tmp_path / "rv.v"
        v.write_text(riscv_mini.generate())
        hexf = str(tmp_path / "prog.hex")
        write_hex_image(hexf, riscv_mini.program_image("sum10"))
        assert main(["simulate", str(v), "--top", "riscv_mini",
                     "-n", "2", "-c", "80", "--load", f"imem={hexf}"]) == 0
        out = capsys.readouterr().out
        assert "io_out_port" in out

    def test_unknown_memory_name(self, counter_v, tmp_path, capsys):
        hexf = tmp_path / "x.hex"
        hexf.write_text("1 2 3\n")
        assert main(["simulate", counter_v, "--top", "counter", "-n", "2",
                     "-c", "2", "--load", f"nomem={hexf}"]) == 2
        assert "nomem" in capsys.readouterr().err

    def test_bad_spec(self, counter_v, capsys):
        assert main(["simulate", counter_v, "--top", "counter", "-n", "2",
                     "-c", "2", "--load", "oops"]) == 2
        assert "NAME=FILE" in capsys.readouterr().err
