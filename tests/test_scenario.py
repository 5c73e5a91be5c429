"""Scenario file grammar, validation errors, canonical form and hashing."""

import math
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from irsmimo.checks import random_scenario
from irsmimo.response import ReflectionConfig, WaveConfig
from irsmimo.scenario import (
    FORMAT,
    KEYS,
    PowerConfig,
    Scenario,
    ScenarioError,
    parse_scenario,
    parse_scenario_text,
    scenario_hash,
    serialize_scenario,
)

ROOT = Path(__file__).resolve().parents[1]
SCENARIO_DIR = ROOT / "scenarios"

MINIMAL = """
wave.wavelength_m = 0.005
tx.count = 5
tx.spacing_m = 0.1
tx.distance_m = 10.0
tx.azimuth_rad = 0.5
tx.elevation_rad = 0.6
rx.count = 3
rx.spacing_m = 0.1
rx.distance_m = 12.0
rx.azimuth_rad = 1.5
rx.elevation_rad = 0.7
irs.count_x = 5
irs.count_y = 5
irs.spacing_x_m = 0.1
irs.spacing_y_m = 0.1
"""


def line_of(text, key):
    """1-based line number of the line setting key."""
    return next(
        i for i, line in enumerate(text.splitlines(), 1) if line.split("=")[0].strip() == key
    )


def edit(text, key, value):
    """Replace (or drop, with value=None) one key in a scenario text blob."""
    out = []
    for line in text.splitlines():
        if line.strip().startswith(key + " "):
            if value is None:
                continue
            line = f"{key} = {value}"
        out.append(line)
    return "\n".join(out) + "\n"


class TestParsing:
    def test_minimal_file_gets_the_documented_defaults(self):
        scn = parse_scenario_text(MINIMAL)
        assert scn.wave.absorption == 0.0
        assert scn.reflection.amplitude == 1.0
        assert scn.reflection.polarization == pytest.approx(math.pi / 3)
        assert scn.power.per_antenna_power == 1.0
        assert scn.focusing_mode == "reflective"
        assert scn.tx.orient_azimuth == 0.0
        assert scn.tx.orient_elevation == pytest.approx(math.pi / 2)
        # element length defaults to the grid pitch (gapless surface)
        assert scn.irs.re_len_x == scn.irs.spacing_x

    def test_comments_and_blank_lines_are_ignored(self):
        scn = parse_scenario_text("# heading\n\n" + MINIMAL + "\nrx.count = 3 # inline\n".replace("rx.count = 3", "meta.note = x"))
        assert scn.metadata["note"] == "x"

    def test_carrier_frequency_converts_to_wavelength(self):
        text = edit(MINIMAL, "wave.wavelength_m", None) + "\nwave.carrier_hz = 140e9\n"
        scn = parse_scenario_text(text)
        assert scn.wave.wavelength == pytest.approx(299792458.0 / 140e9, rel=1e-15)

    def test_metadata_keys_collect_into_a_dict(self):
        scn = parse_scenario_text(MINIMAL + "meta.label = trial 7\nmeta.author = someone\n")
        assert scn.metadata == {"label": "trial 7", "author": "someone"}

    def test_explicit_focusing_carries_the_phase_list(self):
        text = (
            edit(MINIMAL, "irs.count_x", 1).replace("irs.count_y = 5", "irs.count_y = 3")
            + "focusing = explicit\nfocusing.betas_rad = 0.1, 0.2, 0.3\n"
        )
        scn = parse_scenario_text(text)
        assert scn.focusing_betas == (0.1, 0.2, 0.3)


class TestErrors:
    def test_syntax_error_reports_the_line(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario_text("wave.wavelength_m = 0.005\nnot a pair\n")
        assert err.value.line == 2
        assert "key = value" in str(err.value)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ScenarioError, match="duplicate"):
            parse_scenario_text(MINIMAL + "tx.count = 5\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ScenarioError, match="unknown key 'tx.spcing_m'"):
            parse_scenario_text(MINIMAL + "tx.spcing_m = 0.1\n")

    def test_missing_required_key(self):
        with pytest.raises(ScenarioError, match="missing required key 'rx.distance_m'"):
            parse_scenario_text(edit(MINIMAL, "rx.distance_m", None))

    def test_wavelength_and_carrier_are_mutually_exclusive(self):
        with pytest.raises(ScenarioError, match="exactly one"):
            parse_scenario_text(MINIMAL + "wave.carrier_hz = 60e9\n")
        with pytest.raises(ScenarioError, match="exactly one"):
            parse_scenario_text(edit(MINIMAL, "wave.wavelength_m", None))

    def test_even_antenna_count_rejected(self):
        with pytest.raises(ScenarioError, match="odd"):
            parse_scenario_text(edit(MINIMAL, "tx.count", 4))

    def test_non_numeric_value_names_the_key(self):
        with pytest.raises(ScenarioError, match="tx.distance_m"):
            parse_scenario_text(edit(MINIMAL, "tx.distance_m", "ten"))

    def test_out_of_range_angle_is_a_scenario_error(self):
        with pytest.raises(ScenarioError, match="tx array"):
            parse_scenario_text(edit(MINIMAL, "tx.elevation_rad", 2.0))

    def test_beta_list_without_explicit_mode_rejected(self):
        with pytest.raises(ScenarioError, match="explicit"):
            parse_scenario_text(MINIMAL + "focusing.betas_rad = 0.0\n")

    def test_beta_list_length_must_match_surface(self):
        with pytest.raises(ScenarioError, match="25"):
            parse_scenario_text(MINIMAL + "focusing = explicit\nfocusing.betas_rad = 0.0, 0.1\n")

    @pytest.mark.parametrize(
        "extra, first_key, message",
        [
            ("power.noise_w = -1", "power.noise_w", "noise_power must be > 0"),
            (
                "power.per_antenna_w = 1e300\npower.noise_w = 1e-13",
                "power.per_antenna_w",
                "per_antenna_power / noise_power overflows",
            ),
            ("reflection.amplitude = 2", "reflection.amplitude", "amplitude must lie in"),
            (
                "focusing = explicit\nfocusing.betas_rad = 0.0, 0.1",
                "focusing",
                "needs 25 phases, got 2",
            ),
            ("tx.orient_elevation_rad = 4", "tx.count", "tx array: orient_elevation"),
        ],
        ids=["noise", "power_ratio", "amplitude", "short_betas", "tx_tilt"],
    )
    def test_rejected_value_reports_its_section_line(self, extra, first_key, message):
        text = MINIMAL + "meta.pad = x\n" + extra + "\n"
        with pytest.raises(ScenarioError, match=message) as err:
            parse_scenario_text(text)
        assert err.value.line == line_of(text, first_key)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", [key for key, (_, kind) in FORMAT.items() if kind is float])
    def test_non_finite_value_reports_its_line(self, key, value):
        text = edit(MINIMAL, "wave.wavelength_m", None) if key == "wave.carrier_hz" else MINIMAL
        text = edit(text, key, None) + f"meta.pad = x\n{key} = {value}\n"
        with pytest.raises(ScenarioError, match=f"'{key}' expects a finite number") as err:
            parse_scenario_text(text)
        assert err.value.line == line_of(text, key)

    def test_non_finite_beta_reports_its_line(self):
        betas = ", ".join(["0.0"] * 24 + ["nan"])
        text = MINIMAL + f"focusing = explicit\nfocusing.betas_rad = {betas}\n"
        with pytest.raises(ScenarioError, match="finite numbers") as err:
            parse_scenario_text(text)
        assert err.value.line == line_of(text, "focusing.betas_rad")

    def test_rejected_wavelength_reports_its_line(self):
        text = edit(MINIMAL, "wave.wavelength_m", -0.005)
        with pytest.raises(ScenarioError, match="wavelength must be > 0") as err:
            parse_scenario_text(text)
        assert err.value.line == line_of(text, "wave.wavelength_m")

    @pytest.mark.parametrize("d_t, d_r", [("1e-200", "1e-200"), ("1e-300", "1.0")])
    def test_too_small_distance_pair_reports_the_later_line(self, d_t, d_r):
        # 4*pi*D_t*D_r underflows to 0 (or its squared inverse overflows),
        # which every command would meet in the common gain
        text = edit(edit(MINIMAL, "tx.distance_m", d_t), "rx.distance_m", d_r)
        with pytest.raises(ScenarioError, match="are too small") as err:
            parse_scenario_text(text)
        assert err.value.line == line_of(text, "rx.distance_m")

    @pytest.mark.parametrize(
        "power", [{"power.per_antenna_w": "1e80", "power.noise_w": "1e-3"},
                  {"power.noise_w": "1e-90"}, {}],
        ids=["both", "noise_only", "neither"],
    )
    def test_overflowing_power_reports_the_later_line(self, power):
        # a finite power ratio times eta0^2 N_t N_r Q^2 overflows, which
        # bounds rho sigma^2 at every phase and tilt; without power keys
        # the distances' line is named
        near = "1e-78" if not power else "1e-60"
        text = edit(edit(MINIMAL, "tx.distance_m", near), "rx.distance_m", near)
        text += "meta.pad = x\n" + "".join(f"{key} = {value}\n" for key, value in power.items())
        message = r"power ratio times eta0\^2 N_t N_r Q\^2 overflows"
        with pytest.raises(ScenarioError, match=message) as err:
            parse_scenario_text(text)
        assert err.value.line == line_of(text, list(power)[-1] if power else "rx.distance_m")

    def test_missing_file_propagates(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            parse_scenario(tmp_path / "nope.txt")


class TestCanonicalForm:
    def test_round_trip_is_exact(self):
        scn = parse_scenario_text(MINIMAL + "meta.tag = rt\n")
        again = parse_scenario_text(serialize_scenario(scn))
        assert again == scn
        assert serialize_scenario(again) == serialize_scenario(scn)

    def test_hash_is_stable_and_sensitive(self):
        scn = parse_scenario_text(MINIMAL)
        assert scenario_hash(scn) == scenario_hash(parse_scenario_text(MINIMAL))
        moved = replace(scn, tx=replace(scn.tx, distance=10.5))
        assert scenario_hash(moved) != scenario_hash(scn)


    def test_round_trip_keeps_every_field(self, rng):
        for i in range(12):
            scn = random_scenario(rng)
            scn = replace(
                scn,
                wave=WaveConfig(scn.wave.wavelength, float(rng.uniform(0.0, 0.5))),
                reflection=ReflectionConfig(float(rng.uniform(0.1, 1.0)), float(rng.uniform(0, 3))),
                power=PowerConfig(float(rng.uniform(0.1, 2.0)), float(rng.uniform(1e-12, 1.0))),
                focusing_mode="explicit",
                focusing_betas=tuple(rng.uniform(-math.pi, math.pi, scn.irs.n_elements).tolist()),
                metadata={"label": f"draw {i}", "note": "a = b"},
            )
            again = parse_scenario_text(serialize_scenario(scn))
            assert again == scn
            assert scenario_hash(again) == scenario_hash(scn)

    @given(st.dictionaries(st.text("ab =#.\n\t\x85", max_size=5),
                           st.text("ab =#.\n\t\x85", max_size=5), max_size=3))
    def test_accepted_metadata_round_trips(self, metadata):
        base = parse_scenario_text(MINIMAL)
        try:
            scn = replace(base, metadata=metadata)
        except ValueError as exc:
            assert any(f"'meta.{key}'" in str(exc) for key in metadata)
            return
        again = parse_scenario_text(serialize_scenario(scn))
        assert again == scn
        assert scenario_hash(again) == scenario_hash(scn)

    def test_unreadable_metadata_is_rejected_by_key(self):
        base = parse_scenario_text(MINIMAL)
        for value in ("rx #2 moved", "", " padded", "two\nlines"):
            with pytest.raises(ValueError, match="'meta.note'"):
                replace(base, metadata={"note": value})
        with pytest.raises(ValueError, match="'meta.a=b'"):
            replace(base, metadata={"a=b": "c"})

    def test_metadata_is_a_read_only_copy(self):
        source = {"note": "ok"}
        scn = replace(parse_scenario_text(MINIMAL), metadata=source)
        source["note"] = "rx #2"
        with pytest.raises(TypeError):
            scn.metadata["note"] = "rx #2"
        assert scn.metadata == {"note": "ok"}
        assert parse_scenario_text(serialize_scenario(scn)) == scn
        with pytest.raises(ValueError, match="'meta.note'"):
            replace(scn, metadata={**scn.metadata, "note": "rx #2"})


class TestShippedFiles:
    def test_baseline_file_matches_its_documented_setup(self):
        scn = parse_scenario(SCENARIO_DIR / "cascade_baseline.txt")
        assert scn.tx.n_antennas == scn.rx.n_antennas == 5
        assert scn.irs.q_x == scn.irs.q_y == 15
        assert scn.wave.wavelength == pytest.approx(0.005)
        assert scn.tx.distance == scn.rx.distance == 10.0
        # the Rx spacing is an assumption, flagged in the file itself
        assert "spacing" in scn.metadata.get("note", "")

    def test_all_shipped_scenarios_parse(self):
        files = sorted(SCENARIO_DIR.glob("*.txt"))
        assert len(files) >= 3
        for path in files:
            parse_scenario(path)


class TestPowerConfig:
    def test_snr_is_the_power_ratio(self):
        assert PowerConfig(2.0, 0.5).snr == 4.0

    def test_rejects_nonpositive_powers(self):
        with pytest.raises(ValueError):
            PowerConfig(0.0, 1.0)
        with pytest.raises(ValueError):
            PowerConfig(1.0, -1e-3)


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda s: replace(s.tx, distance=NAN), "distance"),
        (lambda s: replace(s.rx, distance=INF), "distance"),
        (lambda s: replace(s.tx, spacing=INF), "spacing"),
        (lambda s: replace(s.irs, spacing_x=INF), "spacing_x"),
        (lambda s: replace(s.irs, spacing_y=INF), "spacing_y"),
        (lambda s: replace(s.wave, wavelength=NAN), "wavelength"),
        (lambda s: replace(s.wave, absorption=NAN), "absorption"),
        (lambda s: replace(s.reflection, polarization=NAN), "polarization"),
        (lambda s: replace(s.power, per_antenna_power=NAN), "per_antenna_power"),
        (lambda s: replace(s.power, per_antenna_power=INF), "per_antenna_power"),
        (lambda s: replace(s.power, noise_power=NAN), "noise_power"),
        (lambda s: replace(s.power, noise_power=INF), "noise_power"),
        (
            lambda s: replace(s.power, per_antenna_power=1e300, noise_power=1e-13),
            "^per_antenna_power / noise_power overflows$",
        ),
        (
            lambda s: replace(
                s,
                focusing_mode="explicit",
                focusing_betas=(0.0,) * (s.irs.n_elements - 1) + (NAN,),
            ),
            "focusing_betas",
        ),
    ],
    ids=[
        "tx_distance_nan", "rx_distance_inf", "tx_spacing_inf", "irs_spacing_x_inf",
        "irs_spacing_y_inf", "wavelength_nan", "absorption_nan", "polarization_nan",
        "tx_power_nan", "tx_power_inf", "noise_nan", "noise_inf", "power_ratio_inf",
        "betas_nan",
    ],
)
def test_code_built_parts_refuse_non_finite_numbers(build, field):
    # the parser refuses these at their own line; a part built in code
    # refuses them itself, naming the field
    with pytest.raises(ValueError, match=field):
        build(parse_scenario_text(MINIMAL))


def test_scenario_dataclass_validates_focusing_mode():
    base = parse_scenario_text(MINIMAL)
    with pytest.raises(ValueError):
        Scenario(
            wave=base.wave,
            tx=base.tx,
            rx=base.rx,
            irs=base.irs,
            focusing_mode="wibble",
        )


def test_readme_documents_every_key():
    """The README key table lists exactly the keys the parser accepts."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = text.split("## Scenario files", 1)[1].split("\n## ", 1)[0]
    documented = set()
    for row in table.splitlines():
        if row.startswith("| `"):
            documented.update(re.findall(r"`([^`]+)`", row.split("|")[1]))
    # "The rx.* keys mirror the tx.* ones."
    documented |= {"rx." + key[3:] for key in documented if key.startswith("tx.")}
    assert documented == set(KEYS) | {"meta.*"}
