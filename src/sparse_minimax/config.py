"""Flat ``key = value`` config and grid files and their typed interpretations.

The format is a diff-friendly line protocol: one assignment per line,
``#`` comments, no nesting, no quoting. Values keep their exact text until
a schema coerces them, so configs round-trip byte-for-byte through
manifests.
"""

from __future__ import annotations

import math

from .risk import ExperimentConfig


def _lines(text: str):
    """(number, text) of each line that is not blank once its '#' comment is cut."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _assign(out: dict[str, str], where: str, text: str) -> None:
    """Add one ``key = value`` to out. A text without '=', an empty key or
    a repeated key (ambiguous in a manifest, so rejected rather than
    resolved) raises ValueError naming where."""
    if "=" not in text:
        raise ValueError(f"{where}: expected 'key = value', got {text.strip()!r}")
    key, value = (part.strip() for part in text.split("=", 1))
    if not key:
        raise ValueError(f"{where}: empty key")
    if key in out:
        raise ValueError(f"{where}: duplicate key {key!r}")
    out[key] = value


def parse_kv_text(text: str) -> dict[str, str]:
    """Flat assignments, one per line; blank lines and '#' comments are skipped."""
    out: dict[str, str] = {}
    for lineno, line in _lines(text):
        _assign(out, f"line {lineno}", line)
    return out


def _grid_number(lineno: int, value: str) -> int | float:
    try:
        return int(value)
    except ValueError:
        try:
            return float(value)
        except ValueError:
            raise ValueError(f"grid line {lineno}: {value!r} is not a number") from None


def parse_grid_text(text: str) -> list[dict]:
    """Grid file: one point per line, comma-separated assignments read by
    ``parse_kv_text``'s rules. Integer-looking values become ints, the
    rest floats."""
    points = []
    for lineno, line in _lines(text):
        point: dict[str, str] = {}
        for part in line.split(","):
            _assign(point, f"grid line {lineno}", part)
        points.append({key: _grid_number(lineno, value) for key, value in point.items()})
    if not points:
        raise ValueError("grid file holds no points")
    return points


def load_kv(path: str) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        return parse_kv_text(fh.read())


def _coerce_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"config key {key!r} must be an integer, got {value!r}") from None


def _coerce_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ValueError(f"config key {key!r} must be a number, got {value!r}") from None


def _coerce_floats(key: str, value: str) -> tuple[float, ...]:
    parts = [p.strip() for p in value.split(",") if p.strip()]
    if not parts:
        raise ValueError(f"config key {key!r} must be a comma-separated list of numbers")
    return tuple(_coerce_float(key, p) for p in parts)


_EXPERIMENT_REQUIRED = {
    "n": _coerce_int,
    "p": _coerce_int,
    "k": _coerce_int,
    "sigma": _coerce_float,
    "eps": _coerce_float,
    "estimator_id": str,
    "amplitudes": _coerce_floats,
    "reps": _coerce_int,
    "master_seed": _coerce_int,
}

_EXPERIMENT_OPTIONAL = {
    "slope_q": _coerce_float,
    "noise_scale": _coerce_float,
    "amplitude_unit": str,
    "support_rule": str,
}


def experiment_config_from_mapping(mapping: dict[str, str]) -> ExperimentConfig:
    """Typed ExperimentConfig from flat text keys; unknown or missing keys
    are named in the error."""
    known = set(_EXPERIMENT_REQUIRED) | set(_EXPERIMENT_OPTIONAL)
    unknown = sorted(set(mapping) - known)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    missing = sorted(set(_EXPERIMENT_REQUIRED) - set(mapping))
    if missing:
        raise ValueError(f"missing config keys: {', '.join(missing)}")
    kwargs: dict = {}
    for key, coerce in _EXPERIMENT_REQUIRED.items():
        kwargs[key] = coerce(key, mapping[key]) if coerce is not str else mapping[key]
    for key, coerce in _EXPERIMENT_OPTIONAL.items():
        if key in mapping:
            kwargs[key] = coerce(key, mapping[key]) if coerce is not str else mapping[key]
    return ExperimentConfig(**kwargs)


def experiment_config_to_mapping(config: ExperimentConfig) -> dict[str, str]:
    """Flat text form of a config; parse/coerce round-trips to an equal
    config, and equal configs render to identical text."""
    out = {
        "n": str(config.n),
        "p": str(config.p),
        "k": str(config.k),
        "sigma": repr(config.sigma),
        "eps": repr(config.eps),
        "estimator_id": config.estimator_id,
        "amplitudes": ", ".join(repr(a) for a in config.amplitudes),
        "reps": str(config.reps),
        "master_seed": str(config.master_seed),
        "slope_q": repr(config.slope_q),
        "amplitude_unit": config.amplitude_unit,
        "support_rule": config.support_rule,
    }
    if config.noise_scale is not None:
        out["noise_scale"] = repr(config.noise_scale)
    return out


_LEMMA_REQUIRED = {
    "n": _coerce_int,
    "p": _coerce_int,
    "k": _coerce_int,
    "sigma": _coerce_float,
    "eps": _coerce_float,
}

# defaults for the per-lemma knobs; amplitude is in threshold units,
# mirroring ExperimentConfig
_LEMMA_OPTIONAL = {
    "amplitude": (_coerce_float, 4.0),
    "k_star": (_coerce_int, None),
    "delta0": (_coerce_float, None),
    "delta1": (_coerce_float, 0.02),
    "delta2": (_coerce_float, 0.02),
    "delta3": (_coerce_float, 0.05),
    "u_samples": (_coerce_int, 64),
    "q": (_coerce_float, 2.0),
    "restarts": (_coerce_int, 16),
}

# every key of the settings that lemma_config_from_mapping returns
LEMMA_FIELDS = (*_LEMMA_REQUIRED, *_LEMMA_OPTIONAL)


def lemma_config_from_mapping(mapping: dict[str, str]) -> dict:
    """Typed settings for the proof-lemma Monte Carlo drivers.

    k_star defaults to 2k and delta0 to the conditioning-event value for
    eps (resolved by the drivers). sigma must be positive: every driver
    feeds a penalized fit whose level comes from sigma.
    """
    known = set(_LEMMA_REQUIRED) | set(_LEMMA_OPTIONAL)
    unknown = sorted(set(mapping) - known)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    missing = sorted(set(_LEMMA_REQUIRED) - set(mapping))
    if missing:
        raise ValueError(f"missing config keys: {', '.join(missing)}")
    out: dict = {key: coerce(key, mapping[key]) for key, coerce in _LEMMA_REQUIRED.items()}
    for key, (coerce, default) in _LEMMA_OPTIONAL.items():
        out[key] = coerce(key, mapping[key]) if key in mapping else default
    if out["k_star"] is None:
        out["k_star"] = 2 * out["k"]
    check_lemma_settings(out)
    return out


def check_lemma_settings(settings: dict) -> None:
    """Refuse, by name, typed lemma settings that a driver cannot run:
    a non-finite real, k outside [1, p), sigma not positive, or k_star
    outside (k, p). ``replay`` applies the same rules to a manifest's
    settings, which can be edited by hand."""
    for key in ("sigma", "eps", "amplitude", "delta0", "delta1", "delta2", "delta3", "q"):
        if settings[key] is not None and not math.isfinite(settings[key]):
            raise ValueError(f"config key {key!r} must be finite, got {settings[key]}")
    if not 1 <= settings["k"] < settings["p"]:
        raise ValueError(f"need 1 <= k < p, got k={settings['k']}, p={settings['p']}")
    if settings["sigma"] <= 0:
        raise ValueError(f"sigma must be positive for lemma checks, got {settings['sigma']}")
    if not settings["k"] < settings["k_star"] < settings["p"]:
        raise ValueError(f"need k < k_star < p, got k_star={settings['k_star']}")
