"""Tests for the CLI tools."""

import pytest

from repro.tools import load_case
from repro.tools.decompose import main as decompose_main
from repro.tools.estimate import main as estimate_main
from repro.tools.run_session import main as session_main


class TestLoadCase:
    def test_builtin_cases(self):
        assert load_case("case4").n_bus == 4
        assert load_case("case14").n_bus == 14
        assert load_case("case118").n_bus == 118

    def test_synthetic_spec(self):
        net = load_case("synthetic:3x10")
        assert net.n_bus == 30

    def test_synthetic_with_seed(self):
        a = load_case("synthetic:3x10:5")
        b = load_case("synthetic:3x10:5")
        assert (a.f == b.f).all()

    @pytest.mark.parametrize("bad", ["case999", "synthetic:abc", "synthetic:3", ""])
    def test_bad_specs(self, bad):
        with pytest.raises(ValueError):
            load_case(bad)


class TestEstimateCli:
    def test_default_run(self, capsys):
        assert estimate_main(["--case", "case14"]) == 0
        out = capsys.readouterr().out
        assert "WLS" in out
        assert "Vm RMSE" in out

    def test_robust_flag(self, capsys):
        assert estimate_main(["--case", "case14", "--robust"]) == 0
        assert "Huber" in capsys.readouterr().out

    def test_constrained_flag(self, capsys):
        assert estimate_main(["--case", "case14", "--constrained"]) == 0
        assert "constrained" in capsys.readouterr().out

    def test_bad_data_identification(self, capsys):
        assert estimate_main(["--case", "case14", "--bad-rows", "1"]) == 0
        out = capsys.readouterr().out
        assert "injected gross errors" in out
        assert "identification" in out


class TestDecomposeCli:
    def test_case118_default(self, capsys):
        assert decompose_main(["--case", "case118"]) == 0
        out = capsys.readouterr().out
        assert "9 subsystems" in out
        assert "Step-1 mapping" in out
        assert "Step-2 mapping" in out
        assert "nwiceb" in out  # the 3-cluster testbed

    def test_custom_cluster_count(self, capsys):
        assert decompose_main(
            ["--case", "synthetic:4x10", "--subsystems", "4", "--clusters", "2"]
        ) == 0
        assert "cluster0" in capsys.readouterr().out


class TestSessionCli:
    def test_small_session(self, capsys):
        rc = session_main(
            ["--case", "synthetic:4x10", "--subsystems", "4", "--frames", "1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "sim total" in out
        assert "Vm RMSE" in out

    def test_with_inproc_fabric(self, capsys):
        rc = session_main(
            ["--case", "synthetic:4x10", "--subsystems", "4", "--frames", "1",
             "--live"]
        )
        assert rc == 0
        assert "live runtime" in capsys.readouterr().out
