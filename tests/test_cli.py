import json
import os
import random
import subprocess
import sys

import pytest

from fandec.cli import run
from fandec.fankit import Fan, fan_from_json, fan_to_json, hirzebruch, product
from fandec.lattice import random_unimodular


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def invoke(capsys, *argv):
    status = run(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_mf_count_closed_form_line(capsys):
    status, out, _ = invoke(capsys, "mf-count", "DIAG(2)", "--mod", "2")
    assert status == 0
    assert out == "9 (closed form 9, MATCH)\n"


def test_mf_count_other_modulus(capsys):
    # pairs (a, b) in (F_3^2)^2 with a.b = 0: 9 + 8*3 = 33, minus the zero vector
    status, out, _ = invoke(capsys, "mf-count", "DIAG(2)", "--mod", "3")
    assert status == 0
    assert out == "32\n"
    # no closed form advertised away from mod 2
    assert "closed" not in out


def test_mf_count_json_and_threads(capsys):
    status, out, _ = invoke(capsys, "mf-count", "PQ(2,2) * CP1", "--mod", "2", "--json")
    assert status == 0
    data = json.loads(out)
    assert data["count"] == 8 and data["closed_form"] == 8 and data["match"] is True
    status, out2, _ = invoke(
        capsys, "mf-count", "PQ(2,2) * CP1", "--mod", "2", "--json", "--threads", "4"
    )
    assert status == 0
    assert out2 == out


def test_recover_command(capsys):
    status, out, _ = invoke(capsys, "recover", "CP1^2 * PQ(1,1)")
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("bundle: {")
    assert lines[1] == "recovered: m=2, m_{1,1}=1, OK"


def test_recover_json(capsys):
    status, out, _ = invoke(capsys, "recover", "S4 * PQ(3,0)", "--json")
    assert status == 0
    data = json.loads(out)
    assert data["round_trip"] == "OK"
    assert data["recovered"] == {"m": 0, "m_pq": {"(3,0)": 1}, "n_r": {}, "n": 1}


def test_fan_gen_validate_and_factor(capsys, tmp_path):
    status, out, _ = invoke(capsys, "fan-gen", "hirzebruch", "0")
    assert status == 0
    f0_path = tmp_path / "f0.json"
    f0_path.write_text(out, encoding="utf-8")
    assert fan_from_json(out) == hirzebruch(0)

    status, out, _ = invoke(capsys, "fan-validate", str(f0_path))
    assert status == 0
    assert "verdict: VALID (smooth complete)" in out

    status, out, _ = invoke(capsys, "fan-factor", str(f0_path))
    assert status == 0
    assert out.startswith("blocks: 2\n")
    assert "reassembly check: OK" in out

    status, out, _ = invoke(capsys, "fan-factor", str(f0_path), "--json")
    data = json.loads(out)
    assert len(data["blocks"]) == 2 and data["reassembles"] is True


def test_fan_gen_f0_blowup_and_iso(capsys, tmp_path):
    _, blowup_doc, _ = invoke(capsys, "fan-gen", "f0-blowup")
    blowup_path = tmp_path / "blowup.json"
    blowup_path.write_text(blowup_doc, encoding="utf-8")

    _, cp2_doc, _ = invoke(capsys, "fan-gen", "proj", "2")
    cp2_path = tmp_path / "cp2.json"
    cp2_path.write_text(cp2_doc, encoding="utf-8")

    status, out, _ = invoke(capsys, "fan-iso", str(blowup_path), str(cp2_path))
    assert status == 0
    assert out.strip() == "NOT ISOMORPHIC"

    _, f1_doc, _ = invoke(capsys, "fan-gen", "hirzebruch", "1")
    f1_path = tmp_path / "f1.json"
    f1_path.write_text(f1_doc, encoding="utf-8")
    _, f1b_doc, _ = invoke(capsys, "fan-gen", "hirzebruch", "-1")
    f1b_path = tmp_path / "f1b.json"
    f1b_path.write_text(f1b_doc, encoding="utf-8")
    status, out, _ = invoke(capsys, "fan-iso", str(f1_path), str(f1b_path))
    assert status == 0
    assert out.startswith("ISOMORPHIC")

    status, out, _ = invoke(capsys, "fan-iso", str(f1_path), str(f1b_path), "--json")
    data = json.loads(out)
    assert data["isomorphic"] is True and len(data["matrix"]) == 2


def test_fan_iso_dim6_negative(capsys, tmp_path):
    # F1^3 against F1^2 x F2, both scrambled: 64 cones and 6! orderings of each
    rng = random.Random(36)
    f1, f2 = hirzebruch(1), hirzebruch(2)
    paths = []
    for last in (f1, f2):
        fan = product(product(f1, f1), last)
        u = random_unimodular(6, rng)
        moved = Fan(6, [u.apply(r) for r in fan.rays], [c.ray_indices for c in fan.maximal_cones])
        path = tmp_path / f"f{len(paths)}.json"
        path.write_text(fan_to_json(moved), encoding="utf-8")
        paths.append(str(path))
    status, out, _ = invoke(capsys, "fan-iso", *paths)
    assert status == 0
    assert out.strip() == "NOT ISOMORPHIC"
    status, out, _ = invoke(capsys, "fan-iso", *paths, "--json")
    assert status == 0
    assert json.loads(out) == {"isomorphic": False}


def test_fan_product_command(capsys, tmp_path):
    _, cp1_doc, _ = invoke(capsys, "fan-gen", "proj", "1")
    _, cp2_doc, _ = invoke(capsys, "fan-gen", "proj", "2")
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(cp1_doc, encoding="utf-8")
    b.write_text(cp2_doc, encoding="utf-8")
    status, out, _ = invoke(capsys, "fan-product", str(a), str(b))
    assert status == 0
    combined = fan_from_json(out)
    assert combined.dim == 3
    assert len(combined.rays) == 5 and len(combined.maximal_cones) == 6


def test_mf_census_poincare_profile_normalize(capsys):
    status, out, _ = invoke(capsys, "mf-census", "CP1 * PQ(3,1) * DIAG(2)")
    assert status == 0
    assert out == "R x 2\nS2xR x 2\nS1xS1xR x 1\ntotal components: 5\n"

    status, out, _ = invoke(capsys, "mf-poincare", "S4 * PQ(3,0)")
    assert status == 0
    assert out.strip() == "1 + 3x + 2x^2 + 3x^3 + x^4"

    status, out, _ = invoke(capsys, "mf-profile", "CP1 * CP1")
    assert status == 0
    assert "b2: 2" in out and "f1.x * f2.x" in out

    status, out, _ = invoke(capsys, "mf-normalize", "1", "0", "1")
    assert status == 0
    assert "normal form: PQ(2,1)" in out
    assert "chi=5" in out

    status, out, _ = invoke(capsys, "mf-normalize", "0", "0", "2", "--json")
    data = json.loads(out)
    assert data["normal_form"] == "DIAG(2)"
    assert data["invariants"] == {"chi": 6, "sigma": 0, "spin": True}


def test_exit_status_parse_error(capsys):
    status, out, err = invoke(capsys, "mf-count", "CP3", "--mod", "2")
    assert status == 2
    assert out == ""
    assert "parse error" in err and "unknown factor name" in err


def test_exit_status_domain_error(capsys):
    status, _, err = invoke(capsys, "mf-count", "CP1", "--mod", "1")
    assert status == 1
    assert "domain error" in err

    status, _, err = invoke(capsys, "recover", "DIAG(1)")
    assert status == 1
    assert "alphabet" in err


def test_exit_status_budget_error(capsys):
    status, _, err = invoke(capsys, "mf-count", "DIAG(4)^2", "--mod", "3")
    assert status == 3
    assert "budget" in err and "enumeration" in err


def test_mf_count_refuses_before_building_the_profile(capsys, monkeypatch):
    import fandec.cli

    def no_profile(pm):
        raise AssertionError("the profile was built for an oversize count")

    monkeypatch.setattr(fandec.cli, "product_manifold_profile", no_profile)
    status, out, err = invoke(capsys, "mf-count", "CP1^60", "--mod", "2")
    assert (status, out) == (3, "")
    assert err == (
        "budget exceeded: enumeration needs 1152921504606846976 states, "
        "over the 20000000-state budget\n"
    )
    # b2 = 1 + (1000 + 0) + 2*3 + 0 is the sum of the linear Poincare terms
    status, _, err = invoke(capsys, "mf-count", "CP1 * PQ(1000,0) * DIAG(3) * S4", "--mod", "2")
    assert status == 3 and f"needs {2**1007} states" in err
    # a bad modulus still exits 1 before any budget refusal
    status, _, err = invoke(capsys, "mf-count", "CP1^60", "--mod", "1")
    assert status == 1 and err == "domain error: modulus must be an integer >= 2, got 1\n"
    # counts too long to write out in full are written as a power
    status, _, err = invoke(capsys, "mf-count", "CP1^20000", "--mod", "3")
    assert status == 3 and "enumeration needs 3^20000 states" in err


def test_poincare_coefficients_too_long_to_write_out_exit_1(capsys):
    # (1 + 10^100 x + x^2)^50 has coefficients of about 5000 digits, over
    # Python's default limit of 4300 for writing an int as text
    for command in ("mf-poincare", "recover"):
        for flags in ((), ("--json",)):
            status, out, err = invoke(capsys, command, f"PQ({10**100},0)^50", *flags)
            assert (status, out) == (1, ""), (command, flags)
            assert err == (
                "domain error: a Poincare coefficient has more than 4300 digits, "
                "the interpreter's limit for writing an integer as text\n"
            )
    # recover also writes the mod-2 class counts, which grow as 2^b2:
    # DIAG(8000) has 2^15999 + 2^7999 - 1, of 4817 digits
    for flags in ((), ("--json",)):
        status, out, err = invoke(capsys, "recover", "DIAG(8000)", *flags)
        assert (status, out) == (1, ""), flags
        assert err == (
            "domain error: a mod-2 class count has more than 4300 digits, "
            "the interpreter's limit for writing an integer as text\n"
        )
    # a coefficient of exactly 4300 digits is still written out
    status, out, _ = invoke(capsys, "mf-poincare", f"PQ({10**4299},0)")
    assert (status, out) == (0, f"1 + {10**4299}x + x^2\n")
    status, out, _ = invoke(capsys, "mf-poincare", f"PQ({10**4299},0)", "--json")
    assert status == 0 and json.loads(out)["coefficients"] == [1, 10**4299, 1]


def test_integer_literal_too_long_to_read_exits_2(capsys):
    # one digit more than the 4300 that int() reads from text by default
    literal = "1" * 4301
    for argv in (("mf-poincare",), ("mf-count", "--mod", "2")):
        for flags in ((), ("--json",)):
            status, out, err = invoke(capsys, *argv, f"CP1 * PQ({literal},0)", *flags)
            assert (status, out) == (2, ""), (argv, flags)
            assert err == (
                "parse error: column 10: integer literal of 4301 digits, "
                "over the interpreter's 4300-digit limit\n"
            )
    # an exponent is read the same way
    status, _, err = invoke(capsys, "mf-count", f"CP1^{literal}", "--mod", "2")
    assert status == 2 and err.startswith("parse error: column 5: integer literal of 4301")
    # a literal of exactly 4300 digits is read
    status, out, _ = invoke(capsys, "mf-poincare", f"CP1 * PQ({'1' * 4300},0)", "--json")
    assert status == 0 and json.loads(out)["coefficients"][1] == int("1" * 4300) + 1


def test_mf_count_and_profile_of_many_spheres(capsys, monkeypatch):
    import fandec.cli
    from fandec.squarezero import product_profile, profile

    status, out, _ = invoke(capsys, "mf-count", "S4^2000 * CP1", "--mod", "2")
    assert (status, out) == (0, "1 (closed form 1, MATCH)\n")
    lazy = [invoke(capsys, "mf-profile", "S4^2000 * CP1", *flags) for flags in ((), ("--json",))]
    assert lazy[0][0] == 0 and "b4: 2000\n" in lazy[0][1] and "f1.x * f1.x = [0, 0," in lazy[0][1]

    def eager(pm):
        return product_profile([profile(f) for f in pm.factors])

    monkeypatch.setattr(fandec.cli, "product_manifold_profile", eager)
    assert [invoke(capsys, "mf-profile", "S4^2000 * CP1", *f) for f in ((), ("--json",))] == lazy


def test_fan_validate_refuses_an_oversize_circuit_search(capsys, tmp_path):
    def unit(dim, *support):
        return tuple(1 if i in support else 0 for i in range(dim))

    rays = [unit(8, i) for i in range(8)] + [unit(8, i, i + 1) for i in range(7)]
    rays += [unit(8, 0, 1, 2), unit(8, 3, 4, 5), unit(8, 5, 6, 7)]
    path = tmp_path / "fat.json"
    path.write_text(fan_to_json(Fan(8, rays, [range(18)])), encoding="utf-8")
    status, out, err = invoke(capsys, "fan-validate", str(path))
    assert (status, out) == (3, "")
    assert err.startswith("budget exceeded: strong-convexity check needs ")

    rays = [unit(6, i) for i in range(6)] + [unit(6, i, i + 1) for i in range(4)]
    path.write_text(fan_to_json(Fan(6, rays, [range(10)])), encoding="utf-8")
    status, out, _ = invoke(capsys, "fan-validate", str(path), "--json")
    assert status == 0
    assert json.loads(out)["checks"]["strongly_convex"] is True


def test_exit_status_missing_file(capsys):
    status, _, err = invoke(capsys, "fan-validate", "/no/such/fan.json")
    assert status == 2
    assert "parse error" in err


def test_exit_status_usage_error(capsys):
    assert invoke(capsys, "no-such-command")[0] == 2
    assert invoke(capsys, "mf-count", "CP1")[0] == 2  # --mod is required
    assert invoke(capsys, "fan-gen", "hirzebruch")[0] == 2  # missing parameter


def test_help_exits_zero(capsys):
    assert invoke(capsys, "--help")[0] == 0


def test_output_deterministic(capsys):
    first = invoke(capsys, "recover", "PQ(2,2) * DIAG(2) * CP1", "--json")
    second = invoke(capsys, "recover", "PQ(2,2) * DIAG(2) * CP1", "--json")
    assert first == second
    data = json.loads(first[1])
    assert list(data) == sorted(data)


def test_selftest_single_criterion(capsys):
    status, out, _ = invoke(capsys, "selftest", "--only", "poincare-poly-disentangling")
    assert status == 0
    assert "poincare-poly-disentangling" in out and "PASS" in out
    assert "1/1 criteria passed" in out


def test_selftest_json_single(capsys):
    status, out, _ = invoke(
        capsys, "selftest", "--only", "connected-sum-normal-form", "--json"
    )
    assert status == 0
    data = json.loads(out)
    assert len(data) == 1 and data[0]["passed"] is True


def test_numpy_is_not_imported_until_a_count_runs():
    # mf-count counts descriptors by strata; only enumerating a hand-built
    # profile loads numpy
    code = (
        "import sys\n"
        "import fandec.cli\n"
        "from fandec import QuadraticProfile, count_square_zero\n"
        "print('numpy' in sys.modules)\n"
        "fandec.cli.run(['mf-poincare', 'CP1^2'])\n"
        "print('numpy' in sys.modules)\n"
        "fandec.cli.run(['mf-count', 'PQ(2,1)', '--mod', '3'])\n"
        "print('numpy' in sys.modules)\n"
        "count_square_zero(QuadraticProfile(('x',), 1, {(0, 0): (1,)}), 3)\n"
        "print('numpy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    flags = [line for line in proc.stdout.splitlines() if line in ("True", "False")]
    assert flags == ["False", "False", "False", "True"]
