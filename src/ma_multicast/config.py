"""The system and experiment configuration, the JSON config reader, and
Record, the frozen-record base of the package's records.

Everything here uses the standard library only, so loading and checking a
config imports no numpy and none of the solver modules.  Record stands in
for dataclasses, whose import (inspect, ast, dis) and generated methods
cost a fresh process several milliseconds before numpy is loaded.
"""

import json
import math
import numbers
from enum import Enum

# Slack of every geometric feasibility check (feasibility_slack): an absolute
# part, and a relative part of 8 float epsilons.
FEASIBILITY_TOL = 1e-9
FEASIBILITY_RTOL = 2.0 ** -49
# Spacing of the fixed array and the default APS grid step: 0.5 length units,
# which is half a wavelength only at wavelength 1.
REFERENCE_SPACING = 0.5
# Most antennas a config may hold; past it is a config error.  One optimize
# at the cap, n = 4 098 on span 2 248.5 with the default angles and the
# proposed scheme, takes about 9-10 s and peaks at about 35.5 MB of RSS
# (2-core host, Python 3.11, numpy 2.4.6), most of the time in the chain-DP
# start, whose memory stays flat in n.  4 098 is the largest array the test
# suite solves.
ARRAY_MAX_ANTENNAS = 4_098


def feasibility_slack(size, unit=1.0):
    """Slack of a feasibility check on lengths up to size in magnitude; size may be an array.

    The lengths compared are counted in unit, itself measured in user
    lengths: wavelengths in the position solve, grid steps in the grid
    searches, 1 everywhere else.  The slack is FEASIBILITY_TOL times
    min(1, 1 / unit), that is 1e-9 user lengths or 1e-9 units, whichever is
    smaller, plus FEASIBILITY_RTOL times size.  Positions the solver builds,
    such as u + (i - 1) d_min or i span_l / (n - 1), carry a few roundings of
    numbers up to the span, so a spacing or an end can miss its bound by a
    few ulps of the span: far below FEASIBILITY_TOL at unit scale, far above
    it at a span of 4e30.

    Converted to user lengths, the slack is at most FEASIBILITY_TOL plus
    FEASIBILITY_RTOL times the size in user lengths: never looser than the
    slack validate_positions allows the same lengths in user units, the
    check that every kernel's output meets on exit.  So a kernel that
    accepts a length within this slack in its own unit never hands back a
    position that check refuses.  At unit 1 it is the user-unit slack, bit
    for bit.
    """
    return FEASIBILITY_TOL * min(1.0, 1.0 / unit) + FEASIBILITY_RTOL * size


def exceeds_span(n: int, spacing: float, span_l: float, unit=1.0) -> bool:
    """Whether n antennas spacing apart overrun span_l by more than its feasibility slack.

    spacing and span_l are counted in unit, measured in user lengths, as in
    feasibility_slack.
    """
    return (n - 1) * spacing > span_l + feasibility_slack(span_l, unit)


def dbm_to_watt(dbm: float) -> float:
    """Convert a power figure in dBm to watts."""
    return 10.0 ** ((dbm - 30.0) / 10.0)


class ConfigError(ValueError):
    """A config value refused; the message names its field, or the check across fields it fails."""


class Record:
    """Base of the package's frozen records: fixed fields, set once.

    A subclass's fields are its annotated names, in order, unless its body
    sets _field_names; a field's class attribute, if any, is its default.
    Records are built like dataclasses, from positional or keyword arguments,
    with a TypeError on an unknown, repeated or missing one; then _check runs,
    which may read the fields in place, through vars(self), and set attributes
    that are not fields.  Assigning or deleting any attribute raises
    AttributeError.  A record equals a record of its class with the same field
    tuple, and hashes as that tuple; a subclass declared with eq=False keeps
    identity equality and hashing.  Equality, hashing, asdict, replace and repr
    see the fields only.
    """

    def __init_subclass__(cls, eq=True, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_field_names" not in vars(cls):
            cls._field_names = tuple(cls.__annotations__)
        cls._defaults = {name: vars(cls)[name] for name in cls._field_names if name in vars(cls)}
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs):
        cls = type(self)
        names = cls._field_names
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments but {len(args)} were given")
        fields = vars(self)
        fields.update(cls._defaults)
        fields.update(zip(names, args))
        for name in kwargs:
            if name not in names:
                raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
            if name in names[: len(args)]:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
        fields.update(kwargs)
        if len(fields) < len(names):
            missing = [name for name in names if name not in fields]
            raise TypeError(f"{cls.__name__}() missing required arguments {missing}")
        self._check()

    def _check(self):
        """Run after the fields are set, on every build and replace; a subclass reads and checks them here."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(map(vars(self).__getitem__, self._field_names))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in self.asdict().items())})"

    def asdict(self) -> dict:
        """The fields by name, in order."""
        return dict(zip(self._field_names, self._values()))

    def replace(self, **changes):
        """A new record of this class with changes to some fields, built and checked as any other."""
        return type(self)(**{**self.asdict(), **changes})


class Scheme(str, Enum):
    PROPOSED = "proposed"
    AO = "ao"
    APS = "aps"
    MA_MRT = "ma_mrt"
    FPA = "fpa"


# ---------------------------------------------------------------------------
# Config ingestion: one table per config object maps each field to its reader,
# a check that takes (value, path) and returns the value to keep.  These
# readers are the only statement of each field's type and range: the JSON
# walker, SystemConfig and the CLI's sweep flags all read through them.


def _number(value, path):
    """A finite float; an int or a numpy scalar converts to one, a bool does not."""
    # plain floats skip the isinstance checks: SystemConfig reads several per build
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ConfigError(f"{path}: expected a number")
        try:
            value = float(value)
        except OverflowError:
            # an integer past the float range, such as a 401-digit JSON number
            value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{path}: must be finite")
    return value


def _positive(value, path):
    value = _number(value, path)
    if value <= 0.0:
        raise ConfigError(f"{path}: must be positive")
    return value


def _angle(value, path):
    value = _number(value, path)
    if not 0.0 <= value <= math.pi:
        raise ConfigError(f"{path}: must lie in [0, pi]")
    return value


def _integer(minimum, maximum=math.inf):
    """The reader of an integer in [minimum, maximum]; a numpy integer converts to an int, a bool does not."""

    def read(value, path):
        if type(value) is not int:
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{path}: expected an integer")
            value = int(value)
        if value < minimum:
            raise ConfigError(f"{path}: must be >= {minimum}")
        # an int compares with math.inf exactly, however many digits it has
        if value > maximum:
            raise ConfigError(f"{path}: must be <= {maximum}")
        return value

    return read


def _pair(read):
    """The reader of a list or tuple of two values, each read by read."""

    def read_pair(value, path):
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            raise ConfigError(f"{path}: expected a pair of numbers")
        return read(value[0], f"{path}[0]"), read(value[1], f"{path}[1]")

    return read_pair


def _string(value, path):
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string")
    return value


def _schemes(value, path):
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a non-empty list")
    schemes = []
    for i, name in enumerate(value):
        try:
            scheme = Scheme(name)
        except ValueError:
            valid = ", ".join(s.value for s in Scheme)
            raise ConfigError(f"{path}[{i}]: unknown scheme {name!r} (valid: {valid})")
        if scheme in schemes:
            raise ConfigError(f"{path}[{i}]: duplicate scheme {name!r}")
        schemes.append(scheme)
    return tuple(schemes)


def _fields(doc, path, table, required):
    """The fields of one config object, each read by its entry in table.

    An unknown field is refused before any field is read.  The table's fields
    are then read in table order: the ones present, or every one when
    required, where a missing field reads as None and its reader refuses it.
    The top level has the empty path.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{path or 'top level'}: expected an object")
    prefix = f"{path}." if path else ""
    for key in doc:
        if key not in table:
            raise ConfigError(f"{prefix}{key}: unknown field")
    return {key: read(doc.get(key), prefix + key) for key, read in table.items() if required or key in doc}


def _system(doc, path):
    fields = _fields(doc, path, SYSTEM_FIELDS, required=False)
    try:
        return SystemConfig(**fields)
    except ConfigError as exc:
        # a check across fields: each field alone was read above, under its own path
        raise ConfigError(f"{path}: {exc}") from exc


def _sweep(doc, path):
    """A sweep section, read by the table of its kind; null is no sweep."""
    if doc is None:
        return None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected an object")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in SWEEP_FIELDS:
        raise ConfigError(f"{path}.kind: expected one of {', '.join(SWEEP_FIELDS)}")
    return _fields(doc, path, {"kind": _string, **SWEEP_FIELDS[kind]}, required=True)


SYSTEM_FIELDS = {
    "n_antennas": _integer(2, ARRAY_MAX_ANTENNAS),
    "span_l": _positive,
    "d_min": _positive,
    "wavelength": _positive,
    "tau": _positive,
    "ps_dbm": _number,
    "sigma2_dbm": _number,
    "d_su": _pair(_positive),
    "theta_su": _pair(_angle),
}

# one table per sweep kind; its fields are also the dests of its command's flags
SWEEP_FIELDS = {
    "over_n": {"n_min": _integer(2), "n_max": _integer(2)},
    "over_l": {"l_min": _positive, "l_max": _positive, "l_step": _positive},
    "beam_pattern": {"angle_count": _integer(2)},
}


class SystemConfig(Record):
    """Constants of one downlink instance.

    Defaults encode the benchmark setup used throughout the test suite:
    both users 100 m away at angles pi/4 and 9*pi/10, 25 dBm transmit
    power, -80 dBm noise, free-space-like path-loss exponent 2, unit
    wavelength and half-wavelength minimum spacing on a 4-wavelength
    aperture with five antennas.

    A frozen Record whose fields are SYSTEM_FIELDS's keys, in that order; each
    default is a class attribute.  Building the config, or rebuilding it with
    replace, first reads each field through its SYSTEM_FIELDS reader, the same
    one a JSON config goes through: a bad field raises ConfigError, a
    ValueError, named after the field as "span_l: must be positive" or
    "d_su[1]: must be finite", where the JSON path says "system.span_l: ...".
    Numbers become floats, n_antennas an int and each pair a tuple; numpy
    scalars, lists and tuples are accepted.  The checks across fields follow, each a ConfigError
    too, in this order: (n_antennas - 1) d_min fits in span_l, compared in
    wavelengths, the unit of the position solve (posopt._sca), within
    feasibility_slack(span_l / wavelength, wavelength), and named in user
    lengths if not; each user's SNR scale is positive, and finite
    times n_antennas; then the domains of the phase rate and of the aperture
    phase below.  Then three derived constants are computed once.  They are
    plain attributes, not fields, so equality, hashing, asdict and replace see
    only the inputs.

    Domain of the phase rate: 2 pi / wavelength must be finite.  Then every
    kappa_i and kappa is finite.  The position solve forms kappa^2 only in
    wavelengths (posopt._sca), with the phase rate per wavelength
    kappa_w = kappa wavelength, |kappa_w| <= 2 pi, and ascends only when
    |kappa_w| >= posopt.KAPPA_TOL = 1e-12.  Each round's curvature
    2 kappa_w^2 max(|s|, 1) then lies between 2e-24 and
    2 kappa_w^2 n <= 8 pi^2 * 4 098 < 3.3e5, a normal float at every
    wavelength, and each step g / delta is at most 1 / |kappa_w| <= 1e12
    wavelengths.  The cap on n_antennas, ARRAY_MAX_ANTENNAS, is a check of
    that field alone, made by its reader: it bounds the solve's time and
    memory, and keeps n a small float for the geometry and SNR checks,
    which multiply by it.

    Domain of the aperture phase: the largest phase a steering vector reaches,
    phi = (2 pi / wavelength) span_l, must leave half the float range free,
    checked as 2 phi finite (phi <= 9e307); the factor 2 is the margin.  Every
    product the solve forms then stays finite:
    - Phases.  Both sines lie in [0, 1], so |kappa_i|, |kappa| and the beam
      pattern's (2 pi / wavelength) sin(theta) are at most 2 pi / wavelength,
      and every position lies in [0, span_l + feasibility_slack(span_l)].
      Each phase kappa x is then at most (1 + 2e-15) phi + 1e-9 * 1.8e308,
      inside the free half.  The solve's phases kappa_w x_w, with
      x_w = x / wavelength in [0, span_l / wavelength + 1e-9 + 2e-15 phi]
      and span_l / wavelength = phi / (2 pi), are at most
      (1 + 2e-15) phi + 6.3e-9.  So are the chain-DP start's kappa_w u and
      kappa_w (i - 1) d_min / wavelength.
    - The chain-DP step count, in wavelengths, is
      hi / h_max = max(40 hi, (64 / pi) |kappa_w| hi), with
      hi = span - (n - 1) d and span = span_l / wavelength,
      d = d_min / wavelength.  The grid runs only when
      |kappa_w| >= KAPPA_TOL and the aligned chain, of pitch p < d + P with
      P = 2 pi / |kappa_w| <= 6.3e12, overruns the span.  Then
      hi < (1 + 4 eps) (n - 1) P + 4 eps span, with eps = 2^-52 covering the
      rounding of p, of its product with n - 1 and of hi.  Since
      span = phi / (2 pi), |kappa_w| hi < 6.3 (n - 1) + 4 eps phi and
      40 hi < 2.6e14 (n - 1) + 26 eps phi, both finite, since the solve
      allocates arrays of n entries.  Bounding (64 / pi) |kappa_w| span
      instead would refuse spans that run, such as wavelength 1e-100 with
      span_l 1e207, whose aligned chain fits and skips the grid.

    Attributes
    ----------
    kappas : tuple
        Each user's phase rate (2 pi / wavelength) sin(theta_i).
    kappa : float
        Phase rate of the correlation, (2 pi / wavelength)
        (sin(theta_2) - sin(theta_1)).
    snr_scales : tuple
        Each user's SNR prefactor ps / (d^tau * sigma^2).
    """

    # each field's type and range is its reader's
    _field_names = tuple(SYSTEM_FIELDS)
    n_antennas = 5
    span_l = 4.0
    d_min = 0.5
    wavelength = 1.0
    tau = 2.0
    ps_dbm = 25.0
    sigma2_dbm = -80.0
    d_su = (100.0, 100.0)
    theta_su = (math.pi / 4.0, 9.0 * math.pi / 10.0)

    def _check(self):
        fields = vars(self)
        for name, read in SYSTEM_FIELDS.items():
            fields[name] = read(fields[name], name)
        n, span_l, d_min, wavelength = self.n_antennas, self.span_l, self.d_min, self.wavelength
        if exceeds_span(n, d_min / wavelength, span_l / wavelength, wavelength):
            raise ConfigError(
                "infeasible geometry: (n_antennas - 1) * d_min = "
                f"{(n - 1) * d_min:g} exceeds span_l = {span_l:g}"
            )
        try:
            ps_w, sigma2_w = dbm_to_watt(self.ps_dbm), dbm_to_watt(self.sigma2_dbm)
            c1, c2 = (ps_w / (d**self.tau * sigma2_w) for d in self.d_su)
        except (OverflowError, ZeroDivisionError):
            c1 = c2 = math.nan
        # the largest beam gain is n_antennas, so scale * n is the largest SNR
        if not (0.0 < c1 and c1 * n < math.inf and 0.0 < c2 and c2 * n < math.inf):
            raise ConfigError(
                "ps_dbm, sigma2_dbm, d_su and tau must give each user a positive "
                "SNR scale ps / (d^tau * sigma^2) whose product with n_antennas "
                "is finite"
            )
        rate = 2.0 * math.pi / wavelength
        if not math.isfinite(rate):
            raise ConfigError("wavelength must keep 2 pi / wavelength finite")
        if not math.isfinite(2.0 * rate * span_l):
            raise ConfigError(
                "span_l and wavelength must keep twice the aperture phase, 4 pi span_l / wavelength, finite"
            )
        sin1, sin2 = math.sin(self.theta_su[0]), math.sin(self.theta_su[1])
        fields["snr_scales"] = (c1, c2)
        fields["kappas"] = (rate * sin1, rate * sin2)
        fields["kappa"] = rate * (sin2 - sin1)


class ExperimentConfig(Record):
    system: SystemConfig = SystemConfig()
    schemes: tuple = tuple(Scheme)
    aps_grid_step: float = REFERENCE_SPACING
    sweep: dict | None = None
    output_dir: str = "."


CONFIG_FIELDS = {
    "system": _system,
    "schemes": _schemes,
    # retired keys that steered AO's random restarts: still checked, then dropped
    "seed": _integer(0),
    "n_starts": _integer(1),
    "aps_grid_step": _positive,
    "sweep": _sweep,
    "output_dir": _string,
}


def config_from_dict(doc) -> ExperimentConfig:
    read = _fields(doc, "", CONFIG_FIELDS, required=False)
    read.pop("seed", None)
    read.pop("n_starts", None)
    return ExperimentConfig(**read)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        # UnicodeDecodeError: a file that is not UTF-8
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except ValueError as exc:
        # a JSONDecodeError, or an integer literal past Python's int_max_str_digits
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    return config_from_dict(doc)
