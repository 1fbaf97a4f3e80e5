"""Tests for the one-call flow and the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.estimation import ConstraintSet
from repro.flow import FlowOptions, synthesize
from repro.instrument import explogging
from repro.synth import MapperOptions


SOURCE = """
ENTITY amp IS
PORT (
  QUANTITY vin : IN real IS voltage;
  QUANTITY vout : OUT real IS voltage LIMITED AT 2.0 v
);
END ENTITY;
ARCHITECTURE behavioral OF amp IS
BEGIN
  vout == -5.0 * vin;
END ARCHITECTURE;
"""


class TestFlow:
    def test_synthesize_returns_complete_result(self):
        result = synthesize(SOURCE)
        assert result.design.name == "amp"
        assert result.netlist.instances
        assert result.estimate.feasible
        assert result.mapping.statistics.nodes_visited > 0

    def test_summary_format(self):
        result = synthesize(SOURCE)
        assert "amplif." in result.summary

    def test_describe_mentions_stats(self):
        result = synthesize(SOURCE)
        text = result.describe()
        assert "VHIF" in text
        assert "netlist" in text

    def test_options_propagate_constraints(self):
        options = FlowOptions(constraints=ConstraintSet(max_opamps=50))
        result = synthesize(SOURCE, options=options)
        assert result.estimate.opamps <= 50

    def test_mapper_options_propagate(self):
        options = FlowOptions(mapper=MapperOptions(sequencing="arbitrary"))
        with explogging() as log:
            synthesize(SOURCE, options=options)
        (start,) = log.of_kind("search_start")
        assert start["sequencing"] == "arbitrary"


class TestCli:
    def test_compile_bundled_app(self, capsys):
        assert main(["compile", "receiver"]) == 0
        out = capsys.readouterr().out
        assert "VHIF design" in out
        assert "blocks=" in out

    def test_compile_dot_output(self, capsys):
        assert main(["compile", "function_generator", "--dot"]) == 0
        out = capsys.readouterr().out
        assert "digraph" in out

    def test_synth_bundled_app(self, capsys):
        assert main(["synth", "function_generator"]) == 0
        out = capsys.readouterr().out
        assert "Schmitt trigger" in out
        assert "search:" in out

    def test_spice_deck_output(self, capsys):
        assert main(["spice", "receiver"]) == 0
        out = capsys.readouterr().out
        assert ".END" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        for app in ("receiver", "power_meter", "missile_solver",
                    "iterative_solver", "function_generator"):
            assert app in out

    def test_examples_listing(self, capsys):
        assert main(["examples"]) == 0
        out = capsys.readouterr().out
        assert "receiver" in out

    def test_compile_from_file(self, tmp_path, capsys):
        path = tmp_path / "amp.vams"
        path.write_text(SOURCE)
        assert main(["compile", str(path)]) == 0
        assert "amp" in capsys.readouterr().out

    def test_missing_file_reports_error(self, capsys):
        assert main(["compile", "/nonexistent/file.vams"]) == 1
        assert "error" in capsys.readouterr().err

    def test_verify_command(self, capsys):
        assert main(["verify", "biquad_filter", "--frequency", "200",
                     "--t-end", "0.005"]) == 0
        out = capsys.readouterr().out
        assert "EQUIVALENT" in out

    @pytest.mark.parametrize("argv, message", [
        (["power_meter"], "error: design 'power_meter' has no quantity "
                          "output to compare; its outputs are signals"),
        (["receiver", "--tolerance", "-1"],
         "error: verification tolerance must be positive, got -1"),
    ])
    def test_verify_command_rejects_bad_input(self, argv, message, capsys):
        assert main(["verify", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(message)
        assert "Traceback" not in captured.err
        assert "DEVIATES" not in captured.out

    def test_ac_command(self, capsys):
        assert main(["ac", "biquad_filter"]) == 0
        out = capsys.readouterr().out
        assert "-3 dB corner" in out

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_ac_command_rejects_nonpositive_points(self, points, capsys):
        with pytest.raises(SystemExit) as err:
            main(["ac", "biquad_filter", "--points", points])
        assert err.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_ac_command_needs_ports(self, tmp_path, capsys):
        path = tmp_path / "noin.vams"
        path.write_text(
            "ENTITY e IS PORT (QUANTITY y : OUT real); END ENTITY;"
            "ARCHITECTURE a OF e IS BEGIN y == 1.0; END ARCHITECTURE;"
        )
        assert main(["ac", str(path)]) == 1

    def test_extra_application_loadable(self, capsys):
        assert main(["compile", "biquad_filter"]) == 0
        assert "biquad_filter" in capsys.readouterr().out

    def test_semantic_error_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.vams"
        path.write_text(
            "ENTITY e IS PORT (QUANTITY y : OUT real); END ENTITY;"
            "ARCHITECTURE a OF e IS BEGIN y == ghost; END ARCHITECTURE;"
        )
        assert main(["compile", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error" in err
        assert "bad.vams" in err  # file:line:col: severity: message


class TestLazyImports:
    """``import repro.cli`` loads no flow module; commands import them."""

    SRC = str(Path(__file__).resolve().parent.parent / "src")

    def run(self, *argv):
        return subprocess.run(
            [sys.executable, *argv],
            env=dict(os.environ, PYTHONPATH=self.SRC),
            capture_output=True, text=True, timeout=60,
        )

    def test_cli_import_leaves_the_flow_unloaded(self):
        script = (
            "import sys\n"
            "import repro, repro.cli\n"
            "heavy = [m for m in ('numpy', 'repro.compiler', 'repro.flow')\n"
            "         if m in sys.modules]\n"
            "assert not heavy, heavy\n"
            "for name in repro.__all__:\n"
            "    assert getattr(repro, name) is not None, name\n"
            "assert 'repro.flow' in sys.modules\n"
        )
        run = self.run("-c", script)
        assert run.returncode == 0, run.stderr

    def test_help_exits_zero(self):
        run = self.run("-m", "repro.cli", "--help")
        assert run.returncode == 0, run.stderr
        assert "usage: vase" in run.stdout

