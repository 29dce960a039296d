import pytest
import yaml

from mfswipt import (
    Scenario,
    ScenarioError,
    bundled_scenario_path,
    dbm_to_watts,
    parse_scenario,
    scenario_hash,
    scenario_to_dict,
    watts_to_dbm,
)
from mfswipt.cli import EXIT_BAD_INPUT, main
from mfswipt.geometry import rayleigh_distance
from mfswipt.scenario import PolarLocation, Receiver


class TestUnits:
    def test_dbm_round_numbers(self):
        assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)
        assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-12)
        assert dbm_to_watts(-80.0) == pytest.approx(1e-11, rel=1e-12)

    def test_round_trip(self):
        for dbm in (-80.0, -10.0, 0.0, 30.0, 44.0):
            assert watts_to_dbm(dbm_to_watts(dbm)) == pytest.approx(dbm, abs=1e-12)

    def test_dbm_of_zero_rejected(self):
        with pytest.raises(ValueError):
            watts_to_dbm(0.0)


class TestBundledScenario:
    def test_reference_values(self):
        cfg, scn = parse_scenario(bundled_scenario_path())
        assert cfg.n_antennas == 256
        assert cfg.carrier_freq == 30e9
        assert cfg.d == pytest.approx(0.005)
        assert scn.p0 == pytest.approx(1.0, rel=1e-12)
        assert all(s == pytest.approx(1e-11, rel=1e-12) for s in scn.sigma2)
        assert scn.zeta == 0.5
        assert all(r.weight == 1.0 for r in scn.eh_receivers)
        assert scn.rate_floor == 5.0
        assert scn.solver_overrides == {"convergence_threshold": 0.001}

    def test_distances_resolved_in_rayleigh_multiples(self):
        cfg, scn = parse_scenario(bundled_scenario_path())
        z = rayleigh_distance(cfg)
        assert z == pytest.approx(325.125)
        assert scn.eh_receivers[0].location.distance == pytest.approx(0.015 * z)
        assert scn.id_receivers[1].location.distance == pytest.approx(1.2 * z)


def write_scenario(tmp_path, text: str):
    path = tmp_path / "case.scenario"
    path.write_text(text)
    return path


MINIMAL = """
array: {n_antennas: 64, f_GHz: 30.0}
eh_receivers: []
id_receivers:
  - {theta: 0.0, r_m: 400.0}
power: {P0_dBm: 30.0, sigma2_dBm: -80.0}
constraints: {R_bpshz: 2.0}
"""


class TestParsing:
    def test_decoders_only_is_valid(self, tmp_path):
        cfg, scn = parse_scenario(write_scenario(tmp_path, MINIMAL))
        assert scn.n_eh == 0 and scn.n_id == 1
        assert scn.rate_floor == 2.0

    def test_zero_distance_rejected(self, tmp_path):
        bad = MINIMAL.replace("r_m: 400.0", "r_m: 0.0")
        with pytest.raises(ScenarioError, match="distance"):
            parse_scenario(write_scenario(tmp_path, bad))

    def test_distance_whose_square_overflows_rejected(self, tmp_path):
        # the exact element distances square r; above ~1.34e154 m that is inf
        bad = MINIMAL.replace("r_m: 400.0", "r_m: 1.0e+160")
        with pytest.raises(ScenarioError, match=r"id_receivers\[0\]: distance must have a finite square"):
            parse_scenario(write_scenario(tmp_path, bad))

    def test_unknown_top_level_key_rejected(self, tmp_path):
        bad = MINIMAL + "\nplotting: {dpi: 300}\n"
        with pytest.raises(ScenarioError, match="plotting"):
            parse_scenario(write_scenario(tmp_path, bad))

    def test_unknown_receiver_key_rejected(self, tmp_path):
        bad = MINIMAL.replace("r_m: 400.0}", "r_m: 400.0, color: red}")
        with pytest.raises(ScenarioError, match="color"):
            parse_scenario(write_scenario(tmp_path, bad))

    def test_both_distance_forms_rejected(self, tmp_path):
        bad = MINIMAL.replace("r_m: 400.0", "r_m: 400.0, r_over_Z: 1.1")
        with pytest.raises(ScenarioError, match="exactly one"):
            parse_scenario(write_scenario(tmp_path, bad))

    def test_missing_distance_rejected(self, tmp_path):
        bad = MINIMAL.replace(", r_m: 400.0", "")
        with pytest.raises(ScenarioError, match="exactly one"):
            parse_scenario(write_scenario(tmp_path, bad))

    def test_sigma2_list_must_match_decoder_count(self, tmp_path):
        bad = MINIMAL.replace("sigma2_dBm: -80.0", "sigma2_dBm: [-80.0, -75.0]")
        with pytest.raises(ScenarioError, match="sigma2"):
            parse_scenario(write_scenario(tmp_path, bad))

    def test_per_decoder_noise(self, tmp_path):
        text = MINIMAL.replace("sigma2_dBm: -80.0", "sigma2_dBm: [-75.0]")
        _, scn = parse_scenario(write_scenario(tmp_path, text))
        assert scn.sigma2[0] == pytest.approx(dbm_to_watts(-75.0))

    def test_explicit_spacing(self, tmp_path):
        text = MINIMAL.replace("f_GHz: 30.0", "f_GHz: 30.0, spacing_m: 0.004")
        cfg, _ = parse_scenario(write_scenario(tmp_path, text))
        assert cfg.d == 0.004

    def test_spacing_policy_conflict_rejected(self, tmp_path):
        text = MINIMAL.replace(
            "f_GHz: 30.0", "f_GHz: 30.0, spacing: quarter_wavelength"
        )
        with pytest.raises(ScenarioError, match="spacing"):
            parse_scenario(write_scenario(tmp_path, text))

    def test_nonlinear_block_rejected(self, tmp_path):
        # no solver or output reads a rectifier curve; the objective is the
        # linear harvested power zeta * sum, so the key is refused, not ignored
        text = MINIMAL + "\neh_model: {zeta: 0.6, nonlinear: {kappa: 0.02, varpi: 0.001, varrho: 150.0}}\n"
        with pytest.raises(ScenarioError, match="nonlinear"):
            parse_scenario(write_scenario(tmp_path, text))
        _, scn = parse_scenario(write_scenario(tmp_path, MINIMAL + "\neh_model: {zeta: 0.6}\n"))
        assert scn.zeta == 0.6

    def test_not_yaml_rejected(self, tmp_path):
        with pytest.raises(ScenarioError):
            parse_scenario(write_scenario(tmp_path, "array: [unclosed"))

    def test_pure_python_loader_agrees(self, tmp_path, monkeypatch):
        # without libyaml the pure-Python loader reads the same document and
        # refuses the same malformed file (its message words the fault differently)
        bad = write_scenario(tmp_path, "array: [unclosed")
        with pytest.raises(ScenarioError, match="^cannot parse ") as fast_error:
            parse_scenario(bad)
        fast = parse_scenario(bundled_scenario_path())
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        assert parse_scenario(bundled_scenario_path()) == fast
        with pytest.raises(ScenarioError, match="^cannot parse ") as pure_error:
            parse_scenario(bad)
        assert type(pure_error.value.__cause__) is type(fast_error.value.__cause__)

    def test_empty_scenario_rejected(self, tmp_path):
        text = MINIMAL.replace("- {theta: 0.0, r_m: 400.0}", "")
        with pytest.raises(ScenarioError, match="at least one receiver"):
            parse_scenario(write_scenario(tmp_path, text))


HARVESTER = "eh_receivers:\n  - {theta: 0.0, r_over_Z: 0.1, alpha: 1.0}"


@pytest.mark.parametrize(
    "old, new",
    [
        ("power: {P0_dBm: 30.0, sigma2_dBm: -80.0}", "power: 5"),
        ("power: {P0_dBm: 30.0, sigma2_dBm: -80.0}", "power: [1, 2]"),
        ("constraints: {R_bpshz: 2.0}", "constraints: 7"),
        ("constraints: {R_bpshz: 2.0}", "constraints: {R_bpshz: 2.0}\neh_model: 3"),
        ("constraints: {R_bpshz: 2.0}", "constraints: {R_bpshz: 2.0}\nsolver: [1]"),
        ("array: {n_antennas: 64, f_GHz: 30.0}", "array: 5"),
        ("P0_dBm: 30.0", "P0_dBm: .nan"),
        ("P0_dBm: 30.0", "P0_dBm: .inf"),
        ("R_bpshz: 2.0", "R_bpshz: .nan"),
        ("R_bpshz: 2.0", "R_bpshz: .inf"),
        ("sigma2_dBm: -80.0", "sigma2_dBm: .nan"),
        ("sigma2_dBm: -80.0", "sigma2_dBm: .inf"),
        ("eh_receivers: []", HARVESTER.replace("alpha: 1.0", "alpha: .nan")),
        ("f_GHz: 30.0", "f_GHz: .inf"),
        ("f_GHz: 30.0", "f_GHz: 30.0, spacing_m: .inf"),
        ("f_GHz: 30.0", "f_GHz: 30.0, aperture_m: .nan"),
        ("n_antennas: 64", "n_antennas: 2.7"),
        ("r_m: 400.0", "r_m: .inf"),
        ("eh_receivers: []", HARVESTER.replace("r_over_Z: 0.1", "r_over_Z: .inf")),
        ("P0_dBm: 30.0", "P0_dBm: [30.0]"),
    ],
    ids=[
        "power_scalar", "power_list", "constraints_scalar", "eh_model_scalar", "solver_list",
        "array_scalar", "P0_nan", "P0_inf", "R_nan", "R_inf", "sigma2_nan", "sigma2_inf",
        "alpha_nan", "f_inf", "spacing_inf", "aperture_nan", "n_antennas_fraction", "r_m_inf",
        "r_over_Z_inf", "P0_list",
    ],
)
def test_malformed_value_is_a_scenario_error(tmp_path, capsys, old, new):
    # a block that is no mapping, a non-finite number or a fractional element
    # count is refused by `check`, before any solve could trip over it
    assert old in MINIMAL
    path = write_scenario(tmp_path, MINIMAL.replace(old, new))
    assert main(["check", str(path)]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err.startswith("scenario error: ")


@pytest.mark.parametrize("word", ["yes", "true", "no"])
@pytest.mark.parametrize(
    "old, new",
    [
        ("P0_dBm: 30.0", "P0_dBm: {w}"),
        ("sigma2_dBm: -80.0", "sigma2_dBm: {w}"),
        ("sigma2_dBm: -80.0", "sigma2_dBm: [{w}]"),
        ("R_bpshz: 2.0", "R_bpshz: {w}"),
        ("f_GHz: 30.0", "f_GHz: {w}"),
        ("f_GHz: 30.0", "f_GHz: 30.0, spacing_m: {w}"),
        ("f_GHz: 30.0", "f_GHz: 30.0, aperture_m: {w}"),
        ("n_antennas: 64", "n_antennas: {w}"),
        ("theta: 0.0, r_m", "theta: {w}, r_m"),
        ("r_m: 400.0", "r_m: {w}"),
        ("eh_receivers: []", HARVESTER.replace("r_over_Z: 0.1", "r_over_Z: {w}")),
        ("eh_receivers: []", HARVESTER.replace("alpha: 1.0", "alpha: {w}")),
        ("constraints: {R_bpshz: 2.0}", "constraints: {R_bpshz: 2.0}\neh_model: {zeta: {w}}"),
    ],
    ids=[
        "P0", "sigma2", "sigma2_list", "R", "f_GHz", "spacing_m", "aperture_m", "n_antennas",
        "theta", "r_m", "r_over_Z", "alpha", "zeta",
    ],
)
def test_boolean_is_not_a_number(tmp_path, capsys, old, new, word):
    # YAML reads yes/true/no as booleans, which float() would take as 1 or 0
    assert old in MINIMAL
    path = write_scenario(tmp_path, MINIMAL.replace(old, new.replace("{w}", word)))
    with pytest.raises(ScenarioError):
        parse_scenario(path)
    assert main(["check", str(path)]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err.startswith("scenario error: ")


def test_harvester_line_is_valid(tmp_path):
    text = MINIMAL.replace("eh_receivers: []", HARVESTER)
    _, scn = parse_scenario(write_scenario(tmp_path, text))
    assert scn.n_eh == 1


class TestCanonicalForm:
    def test_round_trip_is_semantically_identical(self, tmp_path):
        cfg, scn = parse_scenario(bundled_scenario_path())
        first = scenario_to_dict(cfg, scn)
        # rebuild from the canonical dict and serialize again
        rebuilt = Scenario(
            eh_receivers=tuple(
                Receiver(PolarLocation(e["theta"], e["r_m"]), weight=e["alpha"])
                for e in first["eh_receivers"]
            ),
            id_receivers=tuple(
                Receiver(PolarLocation(e["theta"], e["r_m"])) for e in first["id_receivers"]
            ),
            sigma2=tuple(dbm_to_watts(s) for s in first["power"]["sigma2_dBm"]),
            p0=dbm_to_watts(first["power"]["P0_dBm"]),
            rate_floor=first["constraints"]["R_bpshz"],
            zeta=first["eh_model"]["zeta"],
            solver_overrides=first["solver"],
        )
        assert scenario_to_dict(cfg, rebuilt) == first

    def test_hash_is_stable_and_input_sensitive(self, tmp_path):
        cfg, scn = parse_scenario(bundled_scenario_path())
        h1 = scenario_hash(cfg, scn)
        h2 = scenario_hash(cfg, scn)
        assert h1 == h2
        import dataclasses

        other = dataclasses.replace(scn, rate_floor=6.0)
        assert scenario_hash(cfg, other) != h1
