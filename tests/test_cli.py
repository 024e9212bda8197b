import csv
import json
import warnings

import pytest

from spindles.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable:
    def test_exit_zero_and_summary(self, capsys):
        code, out, err = run(capsys, "table", "--cap", "2")
        assert code == 0
        assert "23 spaces, 23 fully verified" in out

    def test_csv_columns(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        code, out, _ = run(capsys, "table", "--cap", "2", "--csv", str(path))
        assert code == 0
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["family"] == "AI"
        assert rows[0]["lambda"] == "2"
        assert {r["family"] for r in rows} >= {"AI", "CI", "GRP_a"}
        aiii = [r for r in rows if r["family"] == "AIII"]
        assert all(r["q"] == "" for r in aiii)
        assert all(r["checks_ok"] == "True" for r in rows)

    def test_json_deterministic(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "table", "--cap", "2", "--json", str(p1))
        run(capsys, "table", "--cap", "2", "--json", str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        payload = json.loads(p1.read_text())
        assert payload["cap"] == 2
        assert len(payload["rows"]) == 23
        ai15 = [r for r in payload["rows"] if r["space"] == "SU(2)/SO(2)"]
        assert ai15[0]["lambda"] == 2

    def test_ai15_row_present_at_cap6(self, tmp_path, capsys):
        path = tmp_path / "six.json"
        code, _, _ = run(capsys, "table", "--cap", "6", "--json", str(path))
        assert code == 0
        rows = json.loads(path.read_text())["rows"]
        ai15 = [r for r in rows if r["family"] == "AI" and r["params"] == [1, 5]]
        assert ai15[0]["lambda"] == 6

    def test_bad_cap(self, capsys):
        code, out, err = run(capsys, "table", "--cap", "0")
        assert code == 2
        assert "cap" in err


class TestAnalyze:
    def test_ai_2_4(self, capsys):
        code, out, _ = run(capsys, "analyze", "AI", "2", "4")
        assert code == 0
        assert "lambda    3" in out
        assert "0/1 pi, 1/1 pi, 2/1 pi" in out

    def test_ai_2_4_json(self, capsys):
        code, out, _ = run(capsys, "analyze", "AI", "2", "4", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["lambda"] == 3
        assert payload["method_exact"] == 3
        assert payload["method_numeric"] == 3
        assert payload["knot_times"] == ["0/1 pi", "1/1 pi", "2/1 pi"]

    def test_ci_3(self, capsys):
        code, out, _ = run(capsys, "analyze", "CI", "3", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["lambda"] == 2
        assert payload["frequencies"] == [0.0, 1.0]

    def test_invalid_params_exit_2(self, capsys):
        code, out, err = run(capsys, "analyze", "AI", "0", "4")
        assert code == 2
        assert "p" in err

    def test_missing_q_exit_2(self, capsys):
        code, _, err = run(capsys, "analyze", "AI", "3")
        assert code == 2
        assert "two parameters" in err

    def test_extra_q_exit_2(self, capsys):
        code, _, err = run(capsys, "analyze", "CI", "3", "4")
        assert code == 2
        assert "single parameter" in err


class TestOutOfMemory:
    def test_memory_error_exit_2_one_line(self, capsys, monkeypatch):
        from spindles import cli

        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 728. TiB for an array")

        monkeypatch.setattr(cli, "build_space", no_memory)
        code, out, err = run(capsys, "analyze", "AI", "1", "2")
        assert (code, out) == (2, "")
        assert err == "error: out of memory: Unable to allocate 728. TiB for an array\n"
        assert "Traceback" not in err

    def test_bare_memory_error(self, capsys, monkeypatch):
        from spindles import cli

        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "run_verification", no_memory)
        code, out, err = run(capsys, "verify", "--cap", "2")
        assert (code, out, err) == (2, "", "error: out of memory\n")


class TestEps:
    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    def test_bad_flag_exit_2(self, capsys, value):
        code, _, err = run(capsys, f"--eps={value}", "analyze", "AI", "1", "2")
        assert code == 2
        assert "--eps must be a finite number > 0" in err

    def test_bad_environment_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("SPINDLE_EPS", "abc")
        code, _, err = run(capsys, "analyze", "AI", "1", "2")
        assert code == 2
        assert "SPINDLE_EPS must be a finite number > 0, got 'abc'" in err

    def test_flag_overrides_environment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SPINDLE_EPS", "abc")
        path = tmp_path / "t.json"
        code, _, _ = run(capsys, "--eps", "1e-8", "table", "--cap", "1", "--json", str(path))
        assert code == 0
        assert json.loads(path.read_text())["eps"] == 1e-8

    def test_eps_below_roundoff_is_named(self, capsys):
        # exp(n*pi*xi) carries roundoff near 1e-16, so at eps 1e-20 no
        # candidate passes the isotropy test; the error says at which eps.
        code, out, err = run(capsys, "--eps", "1e-20", "analyze", "AI", "1", "2")
        assert (code, out) == (1, "")
        assert err == (
            "verification failure: AI(1,2): no return to the isotropy group within "
            "n_max = 6 (predicate inconsistent with the element) at eps 1e-20\n"
        )

    def test_method_disagreement_names_eps(self, capsys, monkeypatch):
        # Without its block-determinant parity, BDI_split(3)'s exact route
        # stops at 2 while the scan finds 4.
        from dataclasses import replace

        from spindles import spaces

        spec = replace(spaces._FAMILIES["BDI_split"], identity_component=False)
        monkeypatch.setitem(spaces._FAMILIES, "BDI_split", spec)
        code, _, err = run(capsys, "--eps", "1e-8", "analyze", "BDI_split", "3")
        assert code == 1
        assert err == (
            "verification failure: BDI_split(3): exact method gives 2, "
            "numeric scan gives 4 at eps 1e-08\n"
        )


class TestProfile:
    def test_grid_and_classification(self, capsys):
        code, out, _ = run(capsys, "profile", "AIII", "2", "--step", "1/4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split() == [
            "t_over_pi",
            "jacobi_norm_sq",
            "slice_dimension",
            "classification",
        ]
        first = lines[1].split()
        assert first == ["0", "0", "0", "knot"]
        by_time = {line.split()[0]: line.split() for line in lines[1:]}
        assert by_time["1/2"][3] == "centriole"
        assert by_time["1"][3] == "knot"
        assert by_time["1/4"][3] == "regular"
        assert by_time["1/2"][1] == "1"

    def test_sin_squared_column(self, capsys):
        import math

        code, out, _ = run(capsys, "profile", "CI", "2", "--step", "1/12")
        lines = out.strip().splitlines()[1:]
        assert len(lines) == 25  # lambda 2, 24 steps of pi/12, inclusive
        for line in lines:
            t_str, jacobi, _, _ = line.split()
            num, _, den = t_str.partition("/")
            t = math.pi * int(num) / int(den or "1")
            assert float(jacobi) == pytest.approx(math.sin(t) ** 2, abs=1e-9)

    def test_csv_output(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        code, _, _ = run(capsys, "profile", "AI", "1", "2", "--step", "1/2", "--csv", str(path))
        assert code == 0
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t_over_pi", "jacobi_norm_sq", "slice_dimension", "classification"]
        assert rows[1] == ["0", "0", "0", "knot"]
        assert rows[-1] == ["3", "0", "0", "knot"]

    def test_runaway_step_exit_2(self, capsys):
        # lambda = 3 at steps of pi/10^8 would be 3*10^8 + 1 rows.
        code, out, err = run(capsys, "profile", "AI", "1", "2", "--step", "1/100000000")
        assert (code, out) == (2, "")
        assert err == (
            "error: --step 1/100000000 asks for 300000001 rows, more than 1000000\n"
        )

    def test_row_cap_is_inclusive(self, capsys, monkeypatch):
        from spindles import cli

        monkeypatch.setattr(cli, "MAX_PROFILE_ROWS", 25)
        code, out, _ = run(capsys, "profile", "CI", "2", "--step", "1/12")
        assert code == 0
        assert len(out.strip().splitlines()) == 26  # header + 25 rows
        monkeypatch.setattr(cli, "MAX_PROFILE_ROWS", 24)
        code, out, err = run(capsys, "profile", "CI", "2", "--step", "1/12")
        assert (code, out) == (2, "")
        assert "25 rows, more than 24" in err

    def test_degenerate_step_exit_2(self, capsys):
        code, _, err = run(capsys, "profile", "AI", "1", "2", "--step", "0")
        assert code == 2
        code, _, err = run(capsys, "profile", "AI", "1", "2", "--step=-1/2")
        assert code == 2
        code, _, err = run(capsys, "profile", "AI", "1", "2", "--step", "x")
        assert code == 2


class TestVerify:
    def test_small_cap_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--cap", "2")
        assert code == 0
        assert "0 failed" in out

    def test_debug_scale_fails_canonical_gate(self, capsys):
        code, out, _ = run(capsys, "verify", "--cap", "2", "--debug-scale", "0.5")
        assert code == 1
        assert "canonical" in out
        assert "FAIL" in out

    @pytest.mark.parametrize("scale, code", [("-1", 0), ("0.5", 1)])
    def test_debug_scale_breaks_canonicality_iff_not_unit(self, capsys, scale, code):
        # -xi has the frequencies of xi, so only |C| != 1 fails the battery.
        got, out, _ = run(capsys, "verify", "--cap", "2", f"--debug-scale={scale}")
        assert got == code
        assert ("0 failed" in out) == (code == 0)

    def test_wrong_k_dim_formula_is_a_verification_failure(self, capsys, monkeypatch):
        from dataclasses import replace

        from spindles import spaces

        aiii = replace(spaces._FAMILIES["AIII"], k_dim=lambda n: 2 * n * n)
        monkeypatch.setitem(spaces._FAMILIES, "AIII", aiii)
        code, _, err = run(capsys, "verify", "--cap", "2")
        assert code == 1
        assert err.startswith("verification failure: AIII(1): ")
        assert "k-dimension 1.0, not 2" in err

    def test_pair_product(self, capsys):
        code, out, _ = run(capsys, "verify", "--pair", "2", "3")
        assert code == 0
        assert "product_spindle(2, 3) = 6" in out

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_debug_scale_exit_2(self, capsys, monkeypatch, value):
        from spindles import verification

        built = []
        monkeypatch.setattr(verification, "build_space", built.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "verify", "--cap", "2", f"--debug-scale={value}")
        assert code == 2
        assert built == []
        assert out == ""
        assert err == f"error: --debug-scale must be a finite number, got {float(value)!r}\n"

    def test_pair_validation(self, capsys):
        code, _, err = run(capsys, "verify", "--pair", "0", "3")
        assert code == 2
