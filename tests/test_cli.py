import json
import math

import numpy as np
import pytest

from g2flow.cli import main, spec_from_config
from g2flow.config import RunConfig, load_config
from g2flow.errors import ConfigError
from g2flow.seeds import NUINF


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    cols = {name: np.array([float(r[i]) for r in rows]) for i, name in enumerate(header)}
    return cols


class TestConfig:
    def test_defaults_and_overrides(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"m": 2, "n": 3, "tol": 1e-5}))
        cfg = load_config(str(cfgfile), {"n": 5})
        assert (cfg.m, cfg.n, cfg.tol) == (2, 5, 1e-5)

    def test_env_var(self, tmp_path, monkeypatch):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"r0": 2.0}))
        monkeypatch.setenv("G2FLOW_CONFIG", str(cfgfile))
        cfg = load_config(None, {})
        assert cfg.r0 == 2.0

    def test_unknown_key_rejected(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"nonsense": 1}))
        with pytest.raises(ConfigError):
            load_config(str(cfgfile), {})

    def test_hash_stable(self):
        c1 = RunConfig(family="cone", t_switch=1.0)
        c2 = RunConfig(family="cone", t_switch=1.0)
        assert c1.hash() == c2.hash()
        assert c1.hash() != RunConfig(family="cone", t_switch=2.0).hash()

    @pytest.mark.parametrize(
        "entry",
        [
            {"tol": "1e-6"},
            {"rtol": None},
            {"k": "1.5"},
            {"m": 1.5},
            {"n": True},
            {"max_steps": 1e5},
            {"seed": "7"},
            {"r0": False},
            {"quick": 1},
            {"family": 7},
            {"rtol": math.nan},
            {"c": math.nan},
            {"r0": math.inf},
        ],
        ids=lambda entry: f"{next(iter(entry))}={next(iter(entry.values()))!r}",
    )
    def test_value_of_the_wrong_type_or_not_finite_exits_2(self, tmp_path, capsys, entry):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"family": "cone", **entry}))
        assert main(["--config", str(cfgfile), "classify", "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and next(iter(entry)) in err

    def test_an_int_stands_for_a_float(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"r0": 2, "alpha3": None, "t_switch": 1}))
        cfg = load_config(str(cfgfile), {})
        assert (cfg.r0, cfg.alpha3, cfg.t_switch) == (2, None, 1)

    def test_config_before_or_after_the_subcommand(self, tmp_path):
        """--config reads the same file on either side of the subcommand."""
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"family": "cs", "c": 1.0, "t_switch": 0.1}))
        verdicts = []
        for i, args in enumerate([["--config", str(cfgfile), "classify"], ["classify", "--config", str(cfgfile)]]):
            out = tmp_path / str(i)
            assert main([*args, "--out-dir", str(out)]) == 0
            verdict = json.loads((out / "verdict.json").read_text())
            verdict.pop("config_hash")  # the hash covers --out-dir
            verdicts.append(verdict)
        assert verdicts[0]["kind"] == "ALC" and verdicts[0] == verdicts[1]

    def test_bad_tolerance_exit_code(self, tmp_path):
        rc = main(["solve", "--family", "cone", "--tol", "-1", "--out-dir", str(tmp_path)])
        assert rc == 2
        # below the shooting floor, which figure1 passes straight to find_beta_ac
        rc = main(["solve", "--family", "cone", "--tol", "1e-20", "--out-dir", str(tmp_path)])
        assert rc == 2


# every accepted family name, the family it builds and that family's (p, q)
# at the default m = n = r0 = 1
FAMILY_NAMES = [
    ("cone", "cone", (0.0, 0.0)),
    ("CONE", "cone", (0.0, 0.0)),
    ("b7", "delta_su2", (1.0, -1.0)),
    ("delta_su2", "delta_su2", (1.0, -1.0)),
    ("d7", "su2_factor", (-1.0, 0.0)),
    ("su2_factor", "su2_factor", (-1.0, 0.0)),
    ("kmn", "kmn", (-1.0, 1.0)),
    ("k11", "kmn", (-1.0, 1.0)),
    ("c7", "kmn", (-1.0, 1.0)),
    ("cs", "cs_end", (0.0, 0.0)),
    ("cs_end", "cs_end", (0.0, 0.0)),
    ("ac", "ac_end", (-1.0, 1.0)),
    ("ac_end", "ac_end", (-1.0, 1.0)),
]


class TestFamilyNames:
    @pytest.mark.parametrize("name, family, pq", FAMILY_NAMES, ids=[f[0] for f in FAMILY_NAMES])
    def test_name_builds_its_family(self, name, family, pq):
        alpha3 = 2**-0.5 if family == "su2_factor" else 0.002  # auto alpha1, alpha2
        spec = spec_from_config(RunConfig(family=name, alpha3=alpha3, beta=1.5, c=0.5))
        assert spec.family == family
        params, state, _ = spec.build()
        assert (params.p, params.q) == pq
        assert state is not None

    @pytest.mark.parametrize("name", ["ac", "ac_end"])
    def test_ac_end_takes_p_and_q_else_kmn(self, name):
        params, _, _ = spec_from_config(RunConfig(family=name, p=-2.0, q=3.0, c=0.5)).build()
        assert (params.p, params.q) == (-2.0, 3.0)
        params, _, _ = spec_from_config(RunConfig(family=name, m=1, n=2, c=0.5)).build()
        assert (params.p, params.q) == (-1.0, 4.0)

    @pytest.mark.parametrize("args", [["b7"], ["d7"], ["kmn"], ["nope"]], ids=["b7", "d7", "kmn", "unknown"])
    def test_missing_input_or_unknown_family_exit_code(self, tmp_path, args):
        assert main(["solve", "--family", *args, "--out-dir", str(tmp_path)]) == 2


class TestSolve:
    def test_cone_solve_csv(self, tmp_path):
        rc = main(
            ["solve", "--family", "cone", "--t-switch", "1", "--t1", "10", "--out-dir", str(tmp_path)]
        )
        assert rc == 0
        cols = read_csv(tmp_path / "trajectory.csv")
        assert np.max(np.abs(cols["a"] / cols["b"] - 1.0)) <= 1e-9
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config_hash"]
        assert manifest["events"][-1]["kind"] == "budget_exhausted"
        assert "wall_time_s" in manifest

    def test_cone_starts_at_switch_parameter(self, tmp_path):
        """The first row is the cone at --t-switch."""
        rc = main(
            ["solve", "--family", "cone", "--t-switch", "2", "--t1", "6", "--out-dir", str(tmp_path)]
        )
        assert rc == 0
        cols = read_csv(tmp_path / "trajectory.csv")
        t, a = cols["t"][0], cols["a"][0]
        assert t == 2.0
        assert 54 * a / (math.sqrt(3) * t**3) == pytest.approx(1.0, rel=1e-14)

    def test_exact_cone_never_crosses_a_equals_b(self, tmp_path):
        """a = b holds identically on the cone, so b - a changing sign is roundoff, not an event."""
        rc = main(["solve", "--family", "cone", "--t-switch", "2", "--t1", "6", "--out-dir", str(tmp_path)])
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert [ev["kind"] for ev in manifest["events"]] == ["budget_exhausted"]

    def test_csv_17_digit_roundtrip(self, tmp_path):
        main(["solve", "--family", "cone", "--t-switch", "1", "--t1", "3", "--out-dir", str(tmp_path)])
        with open(tmp_path / "trajectory.csv", encoding="utf-8") as fh:
            fh.readline()
            first = fh.readline().strip().split(",")
        # binary64 round trip: re-render and compare exactly
        for text in first[:10]:
            v = float(text)
            assert float(f"{v:.17g}") == v

    def test_b7_auto_alpha_alc_events(self, tmp_path):
        rc = main(
            [
                "solve", "--family", "b7", "--r0", "1", "--alpha3", "0.002",
                "--alpha1", "auto", "--t1", "40", "--out-dir", str(tmp_path),
            ]
        )
        assert rc == 0
        cols = read_csv(tmp_path / "trajectory.csv")
        # the ALC tail flies the strict-chamber flag
        assert cols["alc_strict"][-1] == 1

    def test_kmn_solve_records_chamber_event(self, tmp_path):
        rc = main(
            [
                "solve", "--family", "kmn", "--m", "1", "--n", "2", "--beta", "1",
                "--t1", "30", "--out-dir", str(tmp_path),
            ]
        )
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        kinds = {e["kind"] for e in manifest["events"]}
        assert kinds & {"enters_alc_chamber", "enters_death_chamber"}


class TestClassifyCmd:
    def test_cs_classify(self, tmp_path):
        rc = main(
            ["classify", "--family", "cs", "--c", "1.0", "--t-switch", "0.1", "--out-dir", str(tmp_path)]
        )
        assert rc == 0
        verdict = json.loads((tmp_path / "verdict.json").read_text())
        assert verdict["kind"] == "ALC"
        assert verdict["ell"] > 0

    def test_cs_switch_beyond_series_reach(self, tmp_path, capsys):
        """At t = 1 the CS series gives 1 + X2 < 0: no seed, so Indeterminate, not a crash."""
        rc = main(["classify", "--family", "cs", "--c", "1", "--t-switch", "1", "--out-dir", str(tmp_path)])
        assert rc == 0
        verdict = json.loads((tmp_path / "verdict.json").read_text())
        assert json.loads(capsys.readouterr().out)["kind"] == verdict["kind"] == "Indeterminate"
        assert verdict["reason"].startswith("no seed:")

    @pytest.mark.parametrize("r0", ["0", "-1"])
    def test_kmn_nonpositive_r0_is_named(self, tmp_path, capsys, r0):
        """K(m, n) rejects r0 <= 0 as B7 and D7 do, naming r0."""
        args = ["classify", "--family", "kmn", "--m", "1", "--n", "2", "--beta", "2", "--r0", r0]
        assert main([*args, "--out-dir", str(tmp_path)]) == 2
        assert "requires r0 > 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, named",
        [
            (["classify", "--family", "kmn", "--m", "1", "--n", "2", "--beta", "2", "--r0", "-1"], "r0"),
            (["classify", "--family", "kmn", "--m", "2", "--n", "4", "--beta", "2"], "(m, n)"),
            (["classify", "--family", "kmn", "--m", "1", "--n", "2", "--beta", "-1"], "beta"),
            (["find-ac", "--m", "2", "--n", "4"], "(m, n)"),
            (["classify", "--family", "b7", "--alpha1", "0.01", "--alpha3", "0.002"], "alpha1"),
            (["classify", "--family", "b7", "--alpha3", "0.002", "--r0", "0"], "r0"),
            (["classify", "--family", "d7", "--alpha3", "-1"], "alpha3"),
        ],
        ids=["kmn-r0", "kmn-m-n", "kmn-beta", "find-ac-m-n", "b7-alpha1", "b7-r0", "d7-alpha3"],
    )
    def test_every_input_error_is_a_config_error(self, tmp_path, capsys, args, named):
        """An input a seed family rejects exits 2, as a config error that names the input."""
        assert main([*args, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and named in err

    def test_sweep(self, tmp_path):
        rc = main(
            [
                "sweep", "--family", "cs", "--param", "c", "--values=-0.5,0.5",
                "--t-switch", "0.1", "--out-dir", str(tmp_path),
            ]
        )
        assert rc == 0
        report = json.loads((tmp_path / "sweep.json").read_text())
        kinds = [r["verdict"]["kind"] for r in report["results"]]
        assert kinds == ["Incomplete", "ALC"]


class TestVerifyQuick:
    def test_quick_passes(self, capsys):
        rc = main(["verify", "--quick"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "ALL PASS" in out


class TestFindAcCmd:
    def test_find_ac_m1_n1(self, tmp_path):
        rc = main(
            ["find-ac", "--m", "1", "--n", "1", "--tol", "1e-4", "--out-dir", str(tmp_path)]
        )
        assert rc == 0
        report = json.loads((tmp_path / "find_ac.json").read_text())
        assert report["cross_validation_residual"] <= 1e-3
        assert (tmp_path / "critical_trajectory.csv").exists()
        cols = read_csv(tmp_path / "critical_trajectory.csv")
        assert cols["a"][-1] < 0.01  # terminates near the corner
        # the run is in arc length: every row has its t, and H = 0 checks it.
        # H drifts where the run starts, at the largest scale; it keeps that
        # drift into the corner, where the orbital volume 2 da^2 db tends to 0
        assert np.all(np.isfinite(cols["t"])) and np.all(np.diff(cols["t"]) < 0)
        volume = 2 * cols["da"] ** 2 * cols["db"]
        assert np.all(np.abs(cols["H"]) <= 1e-10 * (1 + np.max(volume)))
        assert np.all(np.isfinite(cols["mean_curvature"]))

    def test_r0_is_a_unit(self, tmp_path):
        """At r0 = 2, beta_ac is the r0 = 1 value, c_ac is 2^nu_inf times it, and
        the critical run has t times 2, a and b times 8 and da and db times 4."""
        reports, cols = {}, {}
        for r0 in ("1", "2"):
            out = tmp_path / r0
            assert main(["find-ac", "--m", "1", "--n", "2", "--tol", "1e-4", "--r0", r0, "--out-dir", str(out)]) == 0
            reports[r0] = json.loads((out / "find_ac.json").read_text())
            cols[r0] = read_csv(out / "critical_trajectory.csv")
        beta = [reports[r0]["beta_ac_forward"]["critical_value"] for r0 in ("1", "2")]
        c_ac = [reports[r0]["c_ac_backward"]["critical_value"] for r0 in ("1", "2")]
        assert beta[1] == beta[0] and c_ac[1] == 2.0**NUINF * c_ac[0]
        for name, scale in (("t", 2.0), ("s", 8.0), ("a", 8.0), ("b", 8.0), ("da", 4.0), ("db", 4.0)):
            assert np.array_equal(cols["2"][name], scale * cols["1"][name])

    def test_tight_tolerance_is_kept(self, tmp_path):
        rc = main(["find-ac", "--m", "1", "--n", "1", "--tol", "1e-10", "--out-dir", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "find_ac.json").read_text())
        assert report["beta_ac_forward"]["meta"]["tol"] == 1e-10
        assert report["c_ac_backward"]["meta"]["tol"] == 1e-10
        assert report["cross_validation_residual"] < 1e-7


class TestSeedRobustness:
    def test_chamber_persistence_across_seeds(self):
        from g2flow import verification as V

        for seed in (1234, 5678):
            ctx = V.VerificationContext(seed=seed, quick=True)
            res = ctx.run(V.check_chamber_persistence)
            assert res.passed, (seed, res.measured)


class TestFigure1Determinism:
    def test_rerun_byte_identical(self, tmp_path):
        from g2flow.cli import cmd_figure1
        from g2flow.config import RunConfig

        outs = []
        for sub in ("one", "two"):
            d = tmp_path / sub
            cfg = RunConfig(out_dir=str(d), m=1, n=2, r0=1.0, tol=1e-3)
            cmd_figure1(cfg)
            blobs = {}
            for f in sorted(d.iterdir()):
                blobs[f.name] = f.read_bytes()
            outs.append(blobs)
        assert outs[0].keys() == outs[1].keys()
        for name in outs[0]:
            body0, body1 = outs[0][name], outs[1][name]
            if name.endswith(".json"):
                import json as _json

                j0 = _json.loads(body0)
                j1 = _json.loads(body1)
                j0.pop("config_hash", None), j1.pop("config_hash", None)
                assert j0 == j1
            else:
                assert body0 == body1, name
