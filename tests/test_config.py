"""Tests of config parsing, validation, defaults, and round-tripping."""

import contextlib
import copy
import io
import math
import os
import re
from dataclasses import replace
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from chirospec import cli
from chirospec.biphoton import BiphotonAmplitude, JsaKind
from chirospec.config import (
    MAX_SWEEP_CELLS,
    ExperimentConfig,
    SweepSpec,
    config_mapping,
    parse_config,
)
from chirospec.errors import ValidationError
from chirospec.model import Chirality, DriveConfig, NoiseParams, build_rotating_hamiltonian


def serialize_config(cfg: ExperimentConfig) -> str:
    """``config_mapping`` of ``cfg`` as canonical YAML, which ``parse_config`` reads back."""
    return yaml.safe_dump(config_mapping(cfg), sort_keys=True, default_flow_style=False)


class TestDefaults:
    def test_empty_document(self):
        cfg = parse_config("")
        assert cfg.noise.gamma == 1.0
        assert cfg.drive.omega21 == 0.1
        assert cfg.drive.omega31 == 0.1
        assert cfg.drive.omega32 == 0.1
        assert cfg.drive.delta21 == 0.0
        assert cfg.drive.delta31 == 0.0
        assert cfg.drive.chirality is Chirality.RIGHT

    def test_empty_probe_defaults_uncorrelated(self):
        cfg = parse_config("probe:\n")
        assert cfg.probe.kind is JsaKind.UNCORRELATED_GAUSSIAN
        assert cfg.probe.sigma == 1.0

    def test_entangled_defaults(self):
        cfg = parse_config("probe:\n  kind: entangled\n")
        assert cfg.probe.kind is JsaKind.ENTANGLED_SPDC
        assert cfg.probe.sigma_p == 1.0
        assert cfg.probe.omega_p == 0.0  # energy matching of zero centers

    def test_one_config_drives_both_enantiomers(self):
        cfg = parse_config("drive:\n  omega31: 0.1\n")
        assert cfg.drive.chirality is Chirality.RIGHT
        mirrored = cfg.drive.mirror()
        assert mirrored.omega31 == 0.1
        assert build_rotating_hamiltonian(mirrored).matrix[2, 0] == -0.1


class TestValidation:
    def test_negative_gamma(self):
        with pytest.raises(ValidationError, match="gamma > 0"):
            parse_config("noise:\n  gamma: -1.0\n")

    def test_unknown_key(self):
        with pytest.raises(ValidationError, match="unknown key 'frequency'"):
            parse_config("drive:\n  frequency: 2.0\n")

    def test_unknown_top_level_key(self):
        with pytest.raises(ValidationError, match="unknown key"):
            parse_config("laser: {}\n")

    def test_bad_probe_kind(self):
        with pytest.raises(ValidationError, match="probe.kind"):
            parse_config("probe:\n  kind: squeezed\n")

    @pytest.mark.parametrize("kind", ["[entangled]", "{entangled: 1}"])
    def test_unhashable_probe_kind(self, tmp_path, capsys, kind):
        path = tmp_path / "cfg.yaml"
        path.write_text(f"probe:\n  kind: {kind}\nidler: 0.0\n", encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["spectrum", "-c", str(path), "--out", str(out), "--threads", "1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("chirospec: config error: probe.kind must be one of")
        assert not out.exists()

    def test_nonnumeric_field(self):
        with pytest.raises(ValidationError, match="drive.omega21"):
            parse_config("drive:\n  omega21: strong\n")

    def test_idler_and_sweep_conflict(self):
        text = (
            "idler:\n  value: 0.0\n"
            "sweep:\n  t0: {min: 0, max: 1, count: 2}\n"
            "  omega_l: {min: 0, max: 1, count: 2}\n"
        )
        with pytest.raises(ValidationError, match="both idler and sweep"):
            parse_config(text)

    def test_malformed_yaml(self):
        with pytest.raises(ValidationError, match="^malformed config: "):
            parse_config("drive: [unclosed\n")

    def test_non_mapping_document(self):
        with pytest.raises(ValidationError, match="^config document must be a mapping$"):
            parse_config("- just\n- a\n- list\n")

    def test_negative_sigma(self):
        with pytest.raises(ValidationError, match="sigma > 0"):
            parse_config("probe:\n  sigma: -2.0\n")

    def test_idler_needs_one_form(self):
        with pytest.raises(ValidationError):
            parse_config("idler:\n  value: 1.0\n  values: [2.0]\n")

    def test_sweep_needs_both_axes(self):
        with pytest.raises(ValidationError, match="t0 and omega_l"):
            parse_config("sweep:\n  t0: {min: 0, max: 1, count: 2}\n")


class TestIdlerForms:
    def test_scalar(self):
        assert parse_config("idler: 0.5\n").idler == (0.5,)

    def test_value_key(self):
        assert parse_config("idler:\n  value: -1.5\n").idler == (-1.5,)

    def test_values_list(self):
        cfg = parse_config("idler:\n  values: [0.0, 0.5, 1.0]\n")
        assert cfg.idler == (0.0, 0.5, 1.0)

    def test_range(self):
        cfg = parse_config("idler:\n  min: -1.0\n  max: 1.0\n  step: 0.5\n")
        assert cfg.idler == (-1.0, -0.5, 0.0, 0.5, 1.0)

    @pytest.mark.parametrize("form", ["value: 0.5", "values: [0.5]"])
    @pytest.mark.parametrize("range_key", ["max: -3.0", "step: 0.25"])
    def test_single_forms_take_no_range_key(self, tmp_path, capsys, form, range_key):
        text = f"idler: {{{form}, {range_key}}}\n"
        message = "idler needs exactly one of: value, values, or min/max/step"
        with pytest.raises(ValidationError) as info:
            parse_config(text)
        assert str(info.value) == message

        path = tmp_path / "cfg.yaml"
        path.write_text(text + f"output: {{directory: {tmp_path / 'out'}}}\n", encoding="utf-8")
        assert cli.main(["spectrum", "-c", str(path), "--threads", "1"]) == 2
        assert capsys.readouterr().err == f"chirospec: config error: {message}\n"
        assert not (tmp_path / "out").exists()


MISSING_RANGE_KEYS = [
    ("spectrum", "idler: {min: -1.0, step: 0.5}", "idler.max"),
    ("spectrum", "idler: {min: 1.0, step: 0.5}", "idler.max"),
    ("spectrum", "idler: {min: -1.0, max: 1.0}", "idler.step"),
    ("regime-map", "sweep:\n  t0: {max: 15.0, count: 3}\n"
     "  omega_l: {min: -1.0, max: 1.0, count: 3}", "sweep.t0.min"),
    ("regime-map", "sweep:\n  t0: {min: 1.0, count: 3}\n"
     "  omega_l: {min: -1.0, max: 1.0, count: 3}", "sweep.t0.max"),
    ("regime-map", "sweep:\n  t0: {min: 0.0, max: 15.0, count: 3}\n"
     "  omega_l: {max: 1.0, count: 3}", "sweep.omega_l.min"),
    ("regime-map", "sweep:\n  t0: {min: 0.0, max: 15.0, count: 3}\n"
     "  omega_l: {min: -1.0, count: 3}", "sweep.omega_l.max"),
]


@pytest.mark.parametrize(
    "command,text,key", MISSING_RANGE_KEYS, ids=[case[2] for case in MISSING_RANGE_KEYS]
)
def test_missing_range_key_is_rejected(tmp_path, capsys, command, text, key):
    # A missing bound or step used to be read as 0.0.
    with pytest.raises(ValidationError) as info:
        parse_config(text + "\n")
    assert str(info.value) == f"{key} is required"

    path = tmp_path / "cfg.yaml"
    path.write_text(text + f"\noutput: {{directory: {tmp_path / 'out'}}}\n", encoding="utf-8")
    assert cli.main([command, "-c", str(path), "--threads", "1"]) == 2
    assert capsys.readouterr().err == f"chirospec: config error: {key} is required\n"
    assert not (tmp_path / "out").exists()


SIGNLESS_EXPONENTS = [
    ("regime-map", "sweep:\n  t0: {min: 0.0, max: %s, count: 3}\n"
     "  omega_l: {min: -1.0, max: 1.0, count: 3}", "sweep.t0.max", "1.0e6", "1.0e+6"),
    ("spectrum", "probe: {kind: entangled, sigma_p: %s}\nidler: 0.0", "probe.sigma_p",
     "1.0e200", "1.0e+200"),
    ("spectrum", "idler: %s", "idler", "1e-6", "1.0e-6"),
    ("spectrum", "idler: {values: [0.0, %s]}", "idler.values[1]", "-.5E3", "-0.5e+3"),
    ("spectrum", "idler: {value: %s}", "idler.value", "'12'", "12.0"),
]


@pytest.mark.parametrize(
    "command,template,key,written,fixed", SIGNLESS_EXPONENTS,
    ids=[case[2] for case in SIGNLESS_EXPONENTS],
)
def test_number_read_as_text_names_the_float_form(tmp_path, capsys, command, template, key,
                                                  written, fixed):
    # YAML 1.1 reads 1e6 and 1.0e6 as text; the typing stays strict, the message says why
    message = f"{key} must be a number (YAML reads {yaml.safe_load(written)!r} as text; write {fixed})"
    with pytest.raises(ValidationError) as info:
        parse_config(template % written + "\n")
    assert str(info.value) == message
    parse_config(template % fixed + "\n")  # the suggested form is a float

    path = tmp_path / "cfg.yaml"
    text = template % written + f"\noutput: {{directory: {tmp_path / 'out'}}}\n"
    path.write_text(text, encoding="utf-8")
    assert cli.main([command, "-c", str(path), "--threads", "1"]) == 2
    assert capsys.readouterr().err == f"chirospec: config error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", ["idler: abc", "idler: '1e400'", "idler: nan", "idler: true"])
def test_text_that_is_no_finite_number_is_only_not_a_number(text):
    with pytest.raises(ValidationError, match=r"^idler must be a number$"):
        parse_config(text + "\n")


class TestSweep:
    def test_axes(self):
        text = (
            "sweep:\n"
            "  t0: {min: 0.0, max: 15.0, count: 4}\n"
            "  omega_l: {min: -1.0, max: 1.0, count: 3}\n"
        )
        cfg = parse_config(text)
        assert cfg.sweep.t0_values() == [0.0, 5.0, 10.0, 15.0]
        assert cfg.sweep.omega_l_values() == [-1.0, 0.0, 1.0]

    def test_count_validation(self):
        with pytest.raises(ValidationError):
            parse_config(
                "sweep:\n  t0: {min: 0, max: 1, count: 1}\n"
                "  omega_l: {min: 0, max: 1, count: 3}\n"
            )


# Every numeric config key and the field it sets, written out here rather
# than read from the parser's table: a round trip reads and writes a key the
# same way, so it cannot see a key paired with the wrong field.
KEY_FIELDS = [
    ("drive.omega21", "omega21"),
    ("drive.omega31", "omega31"),
    ("drive.omega32", "omega32"),
    ("drive.delta21", "delta21"),
    ("drive.delta31", "delta31"),
    ("noise.gamma", "gamma"),
    ("probe.omega_s_center", "omega_sc"),
    ("probe.omega_l_center", "omega_lc"),
    ("probe.sigma", "sigma"),
    ("probe.sigma_p", "sigma_p"),
    ("probe.t_s", "t_s"),
    ("probe.t_l", "t_l"),
    ("probe.omega_pump", "omega_p"),
    ("scan.center", "scan_center"),
    ("scan.half_width", "scan_half_width"),
    ("scan.step", "scan_step"),
]


class TestKeyFields:
    @pytest.mark.parametrize("key, field", KEY_FIELDS, ids=[k for k, _ in KEY_FIELDS])
    def test_key_sets_only_its_field(self, key, field):
        section, name = key.split(".")
        # An entangled probe with its pump center given, so that energy
        # matching cannot hide a swap of the probe's centers.
        base = {"probe": {"kind": "entangled", "omega_pump": 0.75}} if section == "probe" else {}
        doc = copy.deepcopy(base)
        doc.setdefault(section, {})[name] = 0.375  # valid everywhere, no default
        cfg, base_cfg = parse_config(yaml.safe_dump(doc)), parse_config(yaml.safe_dump(base))

        if section == "scan":
            expected = replace(base_cfg, **{field: 0.375})
        else:
            owner = replace(getattr(base_cfg, section), **{field: 0.375})
            expected = replace(base_cfg, **{section: owner})
        assert cfg == expected


class TestRoundTrip:
    CASES = [
        "",
        "probe:\n  kind: entangled\n  t_s: 24.0\n  t_l: 25.0\n",
        "idler:\n  values: [0.0, 0.99]\n",
        (
            "drive:\n  omega21: 0.25\n  delta21: -0.5\n"
            "noise:\n  gamma: 2.5\n"
            "scan:\n  center: 0.1\n  half_width: 4.0\n  step: 0.01\n"
            "sweep:\n  t0: {min: 0.0, max: 15.0, count: 20}\n"
            "  omega_l: {min: -1.254, max: 1.254, count: 20}\n"
            "output:\n  directory: results\n"
        ),
        # An uncorrelated probe ignores its pump center, but the echo keeps it.
        "probe:\n  kind: uncorrelated\n  omega_pump: 3.0\n",
        # A surrogate-escaped byte is a file name (os.fsencode gives b"a\x80b").
        'output:\n  directory: "a\\udc80b"\n',
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_parse_serialize_parse(self, text):
        cfg = parse_config(text)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_serialization_is_canonical(self):
        cfg = parse_config(self.CASES[3])
        assert serialize_config(cfg) == serialize_config(
            parse_config(serialize_config(cfg))
        )


finite = st.floats(allow_nan=False, allow_infinity=False)
# Centers small enough that the energy-matched pump center stays finite.
centers = st.floats(-1e300, 1e300)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
non_negative = st.floats(min_value=0.0, allow_infinity=False)


def _is_file_name(text: str) -> bool:
    """Whether os.fsencode maps ``text`` to bytes, as a config's output.directory must."""
    try:
        os.fsencode(text)
    except UnicodeEncodeError:
        return False
    return True


@st.composite
def probes(draw):
    centers_kw = dict(omega_sc=draw(centers), omega_lc=draw(centers))
    if draw(st.booleans()):
        return BiphotonAmplitude.uncorrelated(sigma=draw(positive), **centers_kw)
    return BiphotonAmplitude.entangled(
        sigma_p=draw(positive),
        t_s=draw(non_negative),
        t_l=draw(non_negative),
        omega_p=draw(st.none() | finite),
        **centers_kw,
    )


@st.composite
def sweeps(draw):
    t0_min, t0_max = sorted(draw(st.lists(non_negative, min_size=2, max_size=2, unique=True)))
    wl_min, wl_max = sorted(draw(st.lists(centers, min_size=2, max_size=2, unique=True)))
    t0_count = draw(st.integers(2, 200))
    return SweepSpec(
        t0_min, t0_max, t0_count,
        wl_min, wl_max, draw(st.integers(2, MAX_SWEEP_CELLS // t0_count)),
    )


@st.composite
def configs(draw):
    idler = sweep = None
    if draw(st.booleans()):
        idler = tuple(draw(st.lists(finite, min_size=1, max_size=20)))
    elif draw(st.booleans()):
        sweep = draw(sweeps())
    return ExperimentConfig(
        drive=DriveConfig(*(draw(finite) for _ in range(5))),
        noise=NoiseParams(draw(positive)),
        probe=draw(probes()),
        scan_center=draw(st.none() | finite),
        scan_half_width=draw(st.none() | positive),
        scan_step=draw(st.none() | positive),
        idler=idler,
        sweep=sweep,
        output_dir=draw(
            st.text(st.characters(exclude_characters="\0"), min_size=1).filter(_is_file_name)
        ),
    )


class TestRoundTripProperty:
    @given(configs())
    @settings(max_examples=300, deadline=None)
    def test_parse_serialize_round_trip(self, cfg):
        assert parse_config(serialize_config(cfg)) == cfg


non_finite = st.sampled_from([math.inf, -math.inf, math.nan])
not_positive = non_finite | st.floats(max_value=0.0, allow_nan=False)
negative = non_finite | st.floats(max_value=0.0, exclude_max=True, allow_nan=False)
huge = st.floats(min_value=1e10, allow_infinity=False)
# Every numeric config key, with values that are non-finite or outside the
# range the key accepts.  Huge centers and T0 values pass the parser and
# are rejected by the command, when it builds the scan grid.
REJECTED_FIELDS = [
    ("drive.omega21", non_finite),
    ("drive.omega31", non_finite),
    ("drive.omega32", non_finite),
    ("drive.delta21", non_finite),
    ("drive.delta31", non_finite),
    ("noise.gamma", not_positive),
    ("probe.sigma", not_positive),
    ("probe.sigma_p", not_positive),
    ("probe.t_s", negative),
    ("probe.t_l", negative),
    ("probe.omega_s_center", non_finite | huge),
    ("probe.omega_l_center", non_finite),
    ("probe.omega_pump", non_finite),
    ("scan.center", non_finite | huge | huge.map(lambda x: -x)),
    ("scan.half_width", not_positive),
    ("scan.step", not_positive),
    ("idler", non_finite),
    ("idler.value", non_finite),
    ("idler.values.0", non_finite),
    ("idler.min", non_finite | st.floats(min_value=1.0, exclude_min=True)),
    ("idler.max", non_finite | st.floats(max_value=0.0, exclude_max=True)),
    ("idler.step", not_positive),
    ("sweep.t0.min", negative | st.floats(min_value=1.0)),
    ("sweep.t0.max", not_positive | st.floats(min_value=7.5e307)),
    ("sweep.t0.count", st.integers(max_value=1) | st.integers(min_value=20_001) | finite),
    ("sweep.omega_l.min", non_finite | st.floats(min_value=0.5)),
    ("sweep.omega_l.max", non_finite | st.floats(max_value=-0.5)),
    ("sweep.omega_l.count", st.integers(max_value=1) | st.integers(min_value=20_001)),
]
PROBE = {"kind": "entangled", "sigma_p": 1.0, "t_s": 2.4, "t_l": 2.5}
SWEEP = {
    "t0": {"min": 0.0, "max": 1.0, "count": 2},
    "omega_l": {"min": -0.5, "max": 0.5, "count": 2},
}
IDLER_FORMS = {
    "idler": 0.0,
    "idler.value": {"value": 0.0},
    "idler.values.0": {"values": [0.0]},
}


def base_document(field: str) -> tuple[str, dict]:
    """Command and valid document that use ``field``."""
    if field.startswith("sweep."):
        return "regime-map", {"probe": dict(PROBE), "sweep": copy.deepcopy(SWEEP)}
    idler = IDLER_FORMS.get(field, {"min": 0.0, "max": 1.0, "step": 0.5})
    return "spectrum", {"probe": dict(PROBE), "idler": copy.deepcopy(idler)}


def set_field(doc: dict, field: str, value) -> None:
    *parents, last = field.split(".")
    node = doc
    for key in parents:
        node = node.setdefault(key, {})
    node[int(last) if isinstance(node, list) else last] = value


class TestRejectedFields:
    @pytest.mark.parametrize("field, values", REJECTED_FIELDS, ids=[f for f, _ in REJECTED_FIELDS])
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_rejected_value_is_a_validation_error(self, tmp_path_factory, field, values, data):
        command, doc = base_document(field)
        set_field(doc, field, data.draw(values, label=field))
        out = tmp_path_factory.mktemp("out")
        doc["output"] = {"directory": str(out / "results")}
        text = yaml.safe_dump(doc)

        with pytest.raises(ValidationError):
            cfg = parse_config(text)
            if command == "spectrum":
                cli.cmd_spectrum(cfg, out / "results")
            else:
                cli.cmd_regime_map(cfg, out / "results", 1)

        path = out / "cfg.yaml"
        path.write_text(text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert cli.main([command, "-c", str(path), "--threads", "1"]) == 2
        assert err.getvalue().count("\n") == 1
        assert err.getvalue().startswith("chirospec: config error:")
        assert not (out / "results").exists()


README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


class TestReadme:
    """The README's config block and float note, against the parser."""

    def test_config_block_parses_without_idler_or_without_sweep(self):
        block = README.split("\n## Config format\n", 1)[1].split("```yaml\n", 1)[1]
        sections = re.split(r"\n(?=\S)", block.split("```", 1)[0])  # one per top-level key
        with pytest.raises(ValidationError, match="both idler and sweep"):
            parse_config("\n".join(sections))
        spectrum, regime_map = (
            parse_config("\n".join(s for s in sections if not s.startswith(f"{dropped}:")))
            for dropped in ("sweep", "idler")
        )
        assert spectrum.idler == (0.0, 0.99) and spectrum.sweep is None
        assert regime_map.idler is None and regime_map.sweep.t0_count == 20
        assert spectrum.probe.kind is JsaKind.ENTANGLED_SPDC and spectrum.output_dir == "out"

    def test_float_note_matches_the_parser(self):
        note = " ".join(README.split("Note on YAML floats:", 1)[1].split("\n\n", 1)[0].split())
        accepted, rejected = (re.findall(r"`([^`]+)`", part) for part in note.split(", not ", 1))
        assert accepted and rejected
        for form in accepted:
            assert parse_config(f"noise: {{gamma: {form}}}\n").noise.gamma == float(form)
        for form in rejected:
            with pytest.raises(ValidationError, match=f"reads '{re.escape(form)}' as text"):
                parse_config(f"noise: {{gamma: {form}}}\n")
