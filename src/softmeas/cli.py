"""Command-line sweep runner.

Usage::

    softmeas <command> [--config FILE] [--param name=value ...]
                       [--out FILE] [--format csv|json]
                       [--kappa-convention gram|paper] [--jobs N]

Commands: ``single``, ``repeat``, ``continuous``, ``fig2a``, ``fig2b``,
``fig3``, ``isweep``. Parameters come from built-in defaults, overridden by
a flat ``key = value`` config file, overridden by ``--param`` flags. Grid
parameters use ``start:stop:points``; complex scalars use ``re,im``.
``--kappa-convention`` sets the ``kappa_convention`` parameter, which only
``continuous`` reads: it scales the given ``kappa`` to the Gram decay rate
that the library takes. Every other command takes only its default,
``gram``, and every JSON header records it.

Each command is one entry of the ``_COMMANDS`` table: its parameters, each
declared once with its default, its kind (grid, count grid, float, complex
or choice) and its domain; its output names; and its sweep function.
``run_sweep`` turns the resolved string config into typed values, each
checked against its domain, before any compute, and hands the values that
are not grids to the sweep function, which builds and checks the inputs
shared by every grid point once and returns the function that evaluates a
block of grid points; the two-level closed forms of ``fig2a``, ``fig2b``,
``isweep``, ``repeat`` and ``continuous`` take whole arrays. Grids of more
than ``_BLOCK_POINTS`` points are evaluated in blocks, each written in
place into one float table. The output is written only after the whole
sweep has been computed and checked, and then ``_BLOCK_POINTS`` rows at a
time, so the text held at once does not grow with the grid. Each grid-axis
value is formatted once per axis, and its string is repeated down its
column into one template per chunk of rows, one join per run of rows that
share their values before the last axis; one ``%`` of that template with
the tuple of the chunk's output values formats each of them once.
``--jobs`` is accepted for compatibility and has no effect.

Exit codes: 0 success; 2 configuration error, for anything wrong with what
the user gave: a malformed or unknown parameter, a value outside its
declared domain (non-finite values included; the message names the
parameter and, for a grid, its first value outside), an unreadable config
file, or output that cannot be written (an ``--out`` path, or standard
output whose reader has gone, as in ``| head``); 3 an invariant the library
derives from valid values fails while computing: an accumulated phase
overflows, a derived matrix fails its check, or an output value is not
finite. A check that fails at a grid point names the point's index and
parameter values. The ``--out`` file is opened before the sweep runs, so an
unwritable path exits 2 before any work, and it is overwritten in place:
a regular file is cut at the end of the new text, and a sweep or write that
raises leaves it empty. It is not truncated on opening, because on ext4 a
truncated file that is written anew has its blocks freed, re-allocated and
written back at close, which costs several times the write itself. So a
process killed during the sweep (SIGTERM, SIGKILL, the OOM killer) leaves
the previous output whole, and only the exit code tells that the run
failed; one killed while it writes leaves the new text over the old tail.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import stat
import sys
from contextlib import contextmanager
from itertools import product
from typing import Any, Callable, Iterator, NamedTuple, TextIO

import numpy as np

from .errors import ConfigError, SoftMeasError
from .information import (
    StateEnsemble,
    _rigid_holevo,
    _y_rotations,
    coherent_info_soft,
    coherent_info_two_level,
    compete_two_level,
    holevo_info,
    meter_ensemble,
    semiclassical_info_continuous,
)
from .matcore import DensityMatrix, _unchecked_entropy, partial_trace, von_neumann_entropy
from .measurement import (
    SoftMeasurement,
    TwoLevelMeterParams,
    apply_soft,
    meter_state,
    two_level_gram,
)
from .repeated import (
    ContinuousLimitParams,
    _two_level_matrix,
    continuous_soft,
    repeat_soft,
    two_level_gram_sqrt,
)


# The kappa conventions, each the Gram decay rate per unit of the kappa a
# user gives: the meter overlap decays as exp(-rate*kappa*t), reached by steps
# of angle theta**2 = 8*rate*kappa*dt. The library takes the Gram rate.
_CONVENTIONS = {"gram": 1.0, "paper": 0.5}


class _Domain(NamedTuple):
    """The values a parameter may take: the rule, as messages and the README
    state it after "must", and its test of a parsed value or grid, which
    the parser has already found finite."""

    rule: str
    holds: Callable[[Any], Any]


# Each domain is the one the library checks for the quantity the parameter
# feeds, so that no value the parser accepts fails a library domain check.
_FINITE = _Domain("be finite", lambda x: True)
_UNIT = _Domain("lie in [0, 1]", lambda x: (0.0 <= x) & (x <= 1.0))
_CORRELATION = _Domain("lie in [-1, 1]", lambda x: abs(x) <= 1.0)
_ANGLE = _Domain("lie in [0, pi]", lambda x: (0.0 <= x) & (x <= math.pi))
_NONNEGATIVE = _Domain("be >= 0", lambda x: x >= 0.0)
_COUNTS = _Domain("lie in [1, 2**63)", lambda x: (1.0 <= x) & (x < 2.0**63))
_MODULUS = _Domain("have modulus <= 1", lambda z: math.hypot(z.real, z.imag) <= 1.0)
_DECAY = _Domain("have real part >= 0", lambda z: z.real >= 0.0)
_CONVENTION = _Domain(f"be {' or '.join(map(repr, _CONVENTIONS))}", lambda v: v in _CONVENTIONS)


def _inside(value: Any, name: str, domain: _Domain) -> Any:
    """``value``, a scalar or a grid, once it meets ``domain``; otherwise a
    :class:`ConfigError` names the parameter, the domain and the value, or
    for a grid its first value outside the domain. As the kind of a
    parameter, the text itself is its value."""
    holds = np.asarray(domain.holds(value))
    if not holds.all():
        got = f"grid value {value[~holds][0]}" if holds.ndim else repr(value)
        raise ConfigError(f"parameter {name} must {domain.rule}, got {got}")
    return value


def _parse_float(raw: str, name: str, domain: _Domain = _FINITE) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"parameter {name}: expected a number, got {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"parameter {name} must be finite, got {value}")
    return _inside(value, name, domain)


def _parse_complex(raw: str, name: str, domain: _Domain = _FINITE) -> complex:
    parts = raw.split(",")
    if len(parts) != 2:
        raise ConfigError(f"parameter {name}: expected 're,im', got {raw!r}")
    return _inside(complex(*(_parse_float(part, name) for part in parts)), name, domain)


def _parse_grid(raw: str, name: str, domain: _Domain = _FINITE) -> np.ndarray:
    parts = raw.split(":")
    if len(parts) != 3:
        raise ConfigError(f"parameter {name}: expected 'start:stop:points', got {raw!r}")
    start = _parse_float(parts[0], name)
    stop = _parse_float(parts[1], name)
    try:
        points = int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"parameter {name}: points must be an integer, got {parts[2]!r}") from exc
    if points < 1:
        raise ConfigError(f"parameter {name}: points must be >= 1, got {points}")
    if start > stop:
        raise ConfigError(f"parameter {name}: start {start} exceeds stop {stop}")
    # End points whose span is past the largest float make NaN or infinite
    # points the user never gave, so that span is refused; numpy need not
    # warn about them first.
    try:
        with np.errstate(invalid="ignore", over="ignore"):
            grid = np.linspace(start, stop, points)
    except ValueError as exc:  # a count numpy cannot allocate
        raise ConfigError(f"parameter {name}: cannot make a grid of {points} points") from exc
    if not np.isfinite(grid).all():
        raise ConfigError(
            f"parameter {name}: the span from {start:g} to {stop:g} exceeds the largest float"
        )
    return _inside(grid, name, domain)


def _parse_counts(raw: str, name: str, domain: _Domain) -> np.ndarray:
    """A grid of repetition counts: its points, each rounded to the nearest
    integer, once each, ascending; the domain holds the points before
    rounding. The distinct counts are taken by a sort and a mask of
    adjacent differences: ``np.unique`` would import ``numpy.ma`` on its
    first call, which adds to the launch time of every ``repeat`` run."""
    counts = np.sort(np.rint(_parse_grid(raw, name, domain)).astype(np.int64))
    return counts[np.append(True, counts[1:] != counts[:-1])]


class _Param(NamedTuple):
    """One declared parameter: its default (as config-file text), its kind
    (the parser of its text: one of the ``_parse_*`` functions, or
    ``_inside`` for text taken as it is) and its domain."""

    default: str
    kind: Callable[[str, str, _Domain], Any]
    domain: _Domain = _FINITE


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            for lineno, line in enumerate(handle, start=1):
                stripped = line.split("#", 1)[0].strip()
                if not stripped:
                    continue
                if "=" not in stripped:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, _, value = stripped.partition("=")
                values[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read config file {path}: not UTF-8 text ({exc.reason})") from exc
    return values


def _resolve_config(command: str, args: argparse.Namespace) -> dict[str, str]:
    config = {**_COMMANDS[command].defaults, "kappa_convention": "gram"}
    overrides: dict[str, str] = {}
    if args.config:
        overrides.update(_read_config_file(args.config))
    for item in args.param or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--param expects name=value, got {item!r}")
        overrides[key.strip()] = value.strip()
    for key, value in overrides.items():
        if key not in config:
            raise ConfigError(f"unknown parameter {key!r} for command {command!r}")
        config[key] = value
    if args.kappa_convention:
        config["kappa_convention"] = args.kappa_convention
    return config


def _typed(command: str, config: dict[str, str]) -> dict[str, Any]:
    """The typed value of each parameter ``command`` declares, parsed from
    its text in ``config`` by its kind and checked against its domain; a
    :class:`ConfigError` names the first parameter that fails. A config may
    carry ``kappa_convention`` for any command, which only ``continuous``
    reads, so another command takes only its default."""
    spec = _COMMANDS[command]
    convention = config.get("kappa_convention", "gram")
    if "kappa_convention" not in spec.params and convention != "gram":
        raise ConfigError(
            f"parameter kappa_convention must be 'gram' for {command}, which does not read it,"
            f" got {convention!r}"
        )
    return {name: p.kind(config[name], name, p.domain) for name, p in spec.params.items()}


# Each command's sweep function takes the typed values of its parameters
# that are not grids, builds the inputs shared by the whole grid once
# (the checks of a measurement or state run when it is built), and returns
# the function that evaluates one block: it takes one open-mesh array per
# grid axis (broadcastable to the block's shape) and returns its output
# columns, also broadcastable to that shape. The matrix checks run once
# over each stack. A state derived from checked inputs (a meter, joint or
# object state) is not checked again.


# The two-level basis states |0><0| and |1><1|, in float64.
_BASIS_STATES = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))


def _basis_ensemble(probs) -> StateEnsemble:
    return StateEnsemble(probs=np.asarray(probs, dtype=float), states=_BASIS_STATES)


def _rho(p: float, mu: float, phase: float) -> DensityMatrix:
    """The two-level state of first population ``p`` and coherence ``mu * exp(i*phase)``."""
    off = mu * math.sqrt(p * (1.0 - p)) * cmath.exp(1j * phase)
    return DensityMatrix(np.array([[p, off], [np.conj(off), 1.0 - p]]))


def _two_level_inputs(
    theta: float, chi: float, r12: complex, rho_p: float, rho_mu: float, rho_phase: float
) -> tuple[TwoLevelMeterParams, SoftMeasurement, DensityMatrix]:
    params = TwoLevelMeterParams(theta=theta, chi=chi)
    measurement = SoftMeasurement(
        entanglement=np.array([[1.0, r12], [np.conj(r12), 1.0]]), gram=two_level_gram(params)
    )
    return params, measurement, _rho(rho_p, rho_mu, rho_phase)


# The name suffixes and values of the four real numbers that give a 2x2
# Hermitian matrix, or one per member of a stack: the columns of the meter
# state of ``continuous`` and of the collective meter vectors of ``repeat``.
_ENTRIES = ("00", "01_re", "01_im", "11")


def _entries(m: np.ndarray) -> list[np.ndarray]:
    return [m[..., 0, 0].real, m[..., 0, 1].real, m[..., 0, 1].imag, m[..., 1, 1].real]


def _sweep_fig2a(p):
    return lambda q, mu: [coherent_info_two_level(q, p, mu)]


def _sweep_fig2b(mu):
    return lambda q_eve, q_bob: compete_two_level(q_eve, q_bob, mu)


# fig3's balanced priors over the basis states, shared by every grid point.
_FIG3_PRIORS = np.array([0.5, 0.5])


def _fig3_block(q, theta):
    # The parser checked q in [-1, 1] and theta finite, so each [[1, q], [q, 1]]
    # is a correlation matrix and each y-rotation a basis change; the receiver
    # is rigid. Its two-level kernel takes them unchecked, in float64 like the
    # basis states, with the floats of eve_bob_semiclassical.
    dephase = np.where(np.eye(2, dtype=bool), 1.0, q[..., None, None])
    return [_rigid_holevo(_FIG3_PRIORS, _y_rotations(theta), dephase, _BASIS_STATES)]


def _sweep_continuous(kappa, chi_dot, r_dot, rho_p, rho_mu, rho_phase, kappa_convention):
    rho = _rho(rho_p, rho_mu, rho_phase)
    kappa = _CONVENTIONS[kappa_convention] * kappa

    def block(t):
        params = ContinuousLimitParams(kappa=kappa, t=t, chi_dot=chi_dot, r_dot=r_dot)
        # The meter and joint states share one build of the measurement.
        measurement = continuous_soft(params)
        meter = meter_state(measurement, rho)
        joint = apply_soft(measurement, rho)
        info = semiclassical_info_continuous(kappa, t)
        return [*_entries(meter), _unchecked_entropy(joint), _unchecked_entropy(meter), info]

    return block


def _sweep_repeat(**values):
    params, measurement, rho = _two_level_inputs(**values)

    def block(n):
        vectors = two_level_gram_sqrt(params, n)
        repeated = repeat_soft(measurement, n)
        joint = apply_soft(repeated, rho)
        # The pinned joint_entropy holds the eigensolve rounding of the
        # meter (x) object layout, so the factors are swapped to it.
        joint = joint.reshape(-1, 2, 2, 2, 2).transpose(0, 2, 1, 4, 3).reshape(joint.shape)
        meter = meter_state(repeated, rho)
        entropies = [_unchecked_entropy(meter), _unchecked_entropy(joint)]
        return [*_entries(vectors), *entropies, coherent_info_soft(rho, repeated)]

    return block


def _sweep_single(**values):
    _, measurement, rho = _two_level_inputs(**values)
    q = abs(measurement.entanglement[0, 1] * measurement.gram[0, 1])
    joint = apply_soft(measurement, rho)
    meter = partial_trace(joint, [2, 2], keep=1)
    obj = partial_trace(joint, [2, 2], keep=0)
    populations = np.diag(rho.matrix).real
    info_s = holevo_info(meter_ensemble(_basis_ensemble(populations), measurement))
    info_c = coherent_info_soft(rho, measurement)
    entropies = [von_neumann_entropy(rho), *map(_unchecked_entropy, (obj, meter, joint))]
    return lambda: [q, *entropies, info_c, info_s]


def _sweep_isweep(p, mu):
    ensemble = _basis_ensemble([p, 1.0 - p])

    def block(q):
        grams = _two_level_matrix(1.0, q, q)
        receiver = SoftMeasurement(np.broadcast_to(np.eye(2), grams.shape), grams)
        info_s = holevo_info(meter_ensemble(ensemble, receiver))
        return [coherent_info_two_level(q, p, mu), info_s]

    return block


class _Command(NamedTuple):
    """One command: its parameters, each declared once, in the order of its
    config (its grids among them in emission order); the names of its
    outputs; and its sweep function."""

    params: dict[str, _Param]
    outputs: tuple[str, ...]
    sweep: Callable

    @property
    def defaults(self) -> dict[str, str]:
        return {name: param.default for name, param in self.params.items()}

    @property
    def grids(self) -> tuple[str, ...]:
        return tuple(n for n, p in self.params.items() if p.kind in (_parse_grid, _parse_counts))

    @property
    def columns(self) -> tuple[str, ...]:
        return self.grids + self.outputs


# Declarations shared by several parameters: a softness or coherence grid,
# a first population, a coherence modulus, and a phase or phase rate.
_UNIT_GRID = _Param("0:1:51", _parse_grid, _UNIT)
_POPULATION = _Param("0.5", _parse_float, _UNIT)
_COHERENCE = _Param("1.0", _parse_float, _UNIT)
_PHASE = _Param("0.0", _parse_float)
_RHO = {"rho_p": _POPULATION, "rho_mu": _COHERENCE, "rho_phase": _PHASE}
_METER = {
    "theta": _Param(repr(math.pi / 3.0), _parse_float, _ANGLE),
    "chi": _PHASE,
    "r12": _Param("1,0", _parse_complex, _MODULUS),
}

_COMMANDS: dict[str, _Command] = {
    "fig2a": _Command(
        {"q": _UNIT_GRID, "mu": _UNIT_GRID, "p": _POPULATION},
        ("I_c",),
        _sweep_fig2a,
    ),
    "fig2b": _Command(
        {"q_E": _UNIT_GRID, "q_B": _UNIT_GRID, "mu": _COHERENCE},
        ("I_c_E", "I_c_B"),
        _sweep_fig2b,
    ),
    "fig3": _Command(
        {
            "q": _Param("0:1:51", _parse_grid, _CORRELATION),
            "theta": _Param(f"0:{math.pi / 2.0!r}:51", _parse_grid),
        },
        ("I_s",),
        lambda: _fig3_block,
    ),
    "continuous": _Command(
        {
            "t": _Param("0:5:51", _parse_grid, _NONNEGATIVE),
            "kappa": _Param("1.0", _parse_float, _NONNEGATIVE),
            "chi_dot": _PHASE,
            "r_dot": _Param("0,0", _parse_complex, _DECAY),
            **_RHO,
            "kappa_convention": _Param("gram", _inside, _CONVENTION),
        },
        (*(f"meter_{e}" for e in _ENTRIES), "joint_entropy", "meter_entropy", "I_s"),
        _sweep_continuous,
    ),
    "repeat": _Command(
        {"n": _Param("1:10:10", _parse_counts, _COUNTS), **_METER, **_RHO},
        (*(f"psi_{e}" for e in _ENTRIES), "meter_entropy", "joint_entropy", "I_c"),
        _sweep_repeat,
    ),
    "single": _Command(
        {**_METER, **_RHO},
        (
            "q",
            "input_entropy",
            "object_entropy",
            "meter_entropy",
            "joint_entropy",
            "I_c",
            "I_s",
        ),
        _sweep_single,
    ),
    "isweep": _Command(
        {"q": _UNIT_GRID, "p": _POPULATION, "mu": _COHERENCE}, ("I_c", "I_s"), _sweep_isweep
    ),
}


def _format_value(value: float) -> str:
    text = format(float(value), ".12g")
    return "0" if text == "-0" else text


# Grid points per sweep call, and rows per chunk of output text. Bounds the
# memory held by the stacked intermediates of a large grid (blocks split the
# first grid axis) and by its text (the emitters yield this many rows at a
# time).
_BLOCK_POINTS = 8192


def _row_chunks(
    table: np.ndarray, shape: tuple[int, ...], row: str, fmt: str, plus_zero: bool = False
) -> Iterator[str]:
    """The rows of a float table over a grid of ``shape``, written by the
    row template ``row``, in chunks of up to ``_BLOCK_POINTS`` rows, one
    string per chunk. ``row`` holds one ``%s`` per grid column (the first
    ``len(shape)``), in order, and one placeholder per output column after
    them. With ``plus_zero`` each value has 0.0 added first, which turns
    -0.0 into 0.0.

    Each grid-axis value is formatted once by ``fmt``, followed by the
    template text after its ``%s``; in C order the rows are the product of
    these strings over the axes, each led by the text before the first
    ``%s`` (a grid with no axes has the one row ``row``). Axis ``k`` is read
    from its own column at the stride of the axes after it, so the strings
    carry the table's bits, signed zeros included. The rows that share a
    prefix, the text before the last axis's string, are consecutive, and
    each run of them in a chunk is built as ``prefix + prefix.join(run)``
    over the last axis's strings: one join per run, not one tuple per row.
    A chunk's template is the join of its runs, which never hold a ``%``,
    and its text is that template ``%`` the tuple of the chunk's output
    values in row order: one format operation per chunk.
    """
    texts = row.split("%s", len(shape))
    axes = []
    for k, n in enumerate(shape):
        inner = math.prod(shape[k + 1 :])
        # A later axis of length 0 leaves no rows, so no axis value to read.
        values = table[: n * inner : inner or 1, k]
        values = values + 0.0 if plus_zero else values
        axes.append([fmt % value + texts[k + 1] for value in values.tolist()])
    last = axes.pop() if axes else [""]
    prefixes = map("".join, product([texts[0]], *axes))
    for start in range(0, len(table), _BLOCK_POINTS):
        outputs = table[start : start + _BLOCK_POINTS, len(shape) :]
        if plus_zero:
            outputs = outputs + 0.0
        runs, at, stop = [], start, start + len(outputs)
        while at < stop:
            # Rows ``at`` on share the prefix until the last axis wraps.
            j = at % len(last)
            if not j:
                prefix = next(prefixes)
            run = last[j : j + stop - at]
            runs.append(prefix + prefix.join(run))
            at += len(run)
        yield "".join(runs) % tuple(outputs.ravel().tolist())


def _emit_csv(
    columns: tuple[str, ...], table: np.ndarray, shape: tuple[int, ...]
) -> Iterator[str]:
    """CSV text of a float table over a grid of ``shape``, each value as
    ``_format_value`` writes it, in pieces: the header line, then one piece
    per chunk of rows.

    ``%.12g`` formats a float as ``format(v, ".12g")`` does, and adding 0.0
    first turns -0.0 into 0. Each grid-axis value is formatted once, and
    each chunk of rows takes one ``%`` of its template (see ``_row_chunks``).
    """
    grids = len(shape)
    line = ",".join(["%s"] * grids + ["%.12g"] * (len(columns) - grids)) + "\n"
    yield ",".join(columns) + "\n"
    yield from _row_chunks(table, shape, line, "%.12g", plus_zero=True)


def _emit_json(
    command: str,
    config: dict[str, str],
    columns: tuple[str, ...],
    table: np.ndarray,
    shape: tuple[int, ...],
) -> Iterator[str]:
    """``json.dumps(payload, indent=2)`` text of the header and the float
    table over a grid of ``shape``, in pieces: the header, one piece per
    chunk of rows, and the closing brackets.

    The rows are written by a template in the same layout; ``%r`` writes a
    finite float as :mod:`json` does. Each grid-axis value is formatted
    once, and each chunk of rows takes one ``%`` of its template (see
    ``_row_chunks``). Every row starts with the separator ``,``, which the
    first row trades for the list's opening ``[``.
    """
    head = json.dumps({"command": command, "config": config, "columns": list(columns)}, indent=2)
    yield f'{head[:-2]},\n  "rows": '
    if not len(table):
        yield "[]\n}\n"
        return
    grids = len(shape)
    cells = ["      %s"] * grids + ["      %r"] * (len(columns) - grids)
    chunks = _row_chunks(table, shape, ",\n    [\n" + ",\n".join(cells) + "\n    ]", "%r")
    yield "[" + next(chunks)[1:]
    yield from chunks
    yield "\n  ]\n}\n"


def _check_finite(columns: tuple[str, ...], table: np.ndarray, shape: tuple[int, ...]) -> None:
    """Raise at the first point of a block of ``shape`` whose row of
    ``table`` holds a non-finite value; a block with none is one pass."""
    finite = np.isfinite(table)
    if not finite.all():
        row, j = np.argwhere(~finite)[0]
        index = tuple(int(i) for i in np.unravel_index(row, shape))
        raise SoftMeasError(
            f"invariant violation: non-finite value in column {columns[j]!r}", index=index
        )


def run_sweep(
    command: str, config: dict[str, str]
) -> tuple[tuple[str, ...], np.ndarray, tuple[int, ...]]:
    """Compute the float table of a sweep, one row per grid point in grid
    order and one column per name in the returned columns, and the grid's
    shape (``()`` for a command without grids).

    ``config`` holds each parameter's text, as the config file and JSON
    header do; every value is parsed and checked against its declared
    domain first, and a :class:`ConfigError` names the first that fails.
    The block function that the command's sweep function returns evaluates
    a block of up to ``_BLOCK_POINTS`` grid points (whole rows of the first
    grid axis) in one call, and the block's columns are written into the
    table in place; a grid of that size or smaller is one block. When a
    check, including the check that every output is finite, fails at a grid
    point, the error message names the command, the point's grid index and
    its parameter values, and the exception's ``index``, which the message's
    closing ``(stack member [...])`` shows, is moved from the point's place
    in its block to its place in the whole grid.
    """
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    spec = _COMMANDS[command]
    values = _typed(command, config)
    axes = [values.pop(name) for name in spec.grids]
    evaluate = spec.sweep(**values)
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    shape = tuple(len(axis) for axis in axes)
    columns = spec.columns
    table = np.empty((math.prod(shape), len(columns)))
    inner = math.prod(shape[1:])
    step = max(1, _BLOCK_POINTS // inner)
    for start in range(0, shape[0], step) if shape else [0]:
        block = [m[start : start + step] for m in mesh[:1]] + list(mesh[1:])
        try:
            outputs = evaluate(*block)
            block_shape = np.broadcast_shapes(*(m.shape for m in block))
            rows = table[start * inner : start * inner + math.prod(block_shape)]
            cells = rows.reshape(*block_shape, len(columns))
            for j, column in enumerate((*block, *outputs)):
                cells[..., j] = column
            _check_finite(columns, rows, block_shape)
        except SoftMeasError as exc:
            if exc.index is not None and len(exc.index) == len(shape):
                # The check named the member by its index within the block.
                exc.index = (exc.index[0] + start, *exc.index[1:])
                point = ", ".join(
                    f"{name}={_format_value(np.broadcast_to(m, shape)[exc.index])}"
                    for name, m in zip(spec.grids, mesh)
                )
                flat = int(np.ravel_multi_index(exc.index, shape))
                exc.args = (f"{command} grid point {flat} ({point}): {exc.args[0]}",)
            raise
    return columns, table, shape


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="softmeas",
        description="Soft-measurement channel sweeps: information quantities to CSV/JSON.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument(
        "--param",
        action="append",
        metavar="NAME=VALUE",
        help="override one parameter (repeatable)",
    )
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--kappa-convention", choices=tuple(_CONVENTIONS))
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="accepted for compatibility, has no effect (must be >= 1)",
    )
    return parser


@contextmanager
def _output(path: str | None) -> Iterator[TextIO]:
    """The stream a sweep is written to: stdout, or the file at ``path``.

    The file is opened for writing, created if missing, before the sweep
    runs, so that an unwritable path fails before any work is done. It is
    not truncated on opening but overwritten in place, and a regular file
    is then cut at the end of the new text, or to length 0 if the sweep or
    the write raises: on ext4, truncating a file and writing it anew frees
    and re-allocates its blocks and forces their writeback at close, which
    costs several times the write. So until the new text is written the
    file holds its previous content: a process killed during the sweep
    (SIGTERM, SIGKILL, the OOM killer) leaves the previous output
    whole, and only the exit code tells that the run failed. The file is
    cut through its own descriptor after the stream is closed, so that a
    write that keeps failing cannot keep it from being emptied. It keeps
    its inode, so a symlink is written through and a hard link, owner and
    mode are kept; a target that is not a regular file (the null device,
    a FIFO, a terminal) is never truncated. An error opening, writing or
    cutting either is a :class:`ConfigError`. When stdout fails (its reader
    may have closed the pipe), it is pointed at the null device, so that
    the interpreter's own flush at exit has nothing left to fail on.
    """
    if path:
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
            try:
                regular = stat.S_ISREG(os.fstat(fd).st_mode)
                end = 0
                try:
                    with open(fd, "w", encoding="utf-8", newline="", closefd=False) as handle:
                        yield handle
                        if regular:
                            end = handle.tell()
                finally:
                    if regular:
                        os.ftruncate(fd, end)
            finally:
                os.close(fd)
        except OSError as exc:
            raise ConfigError(f"cannot write output file {path}: {exc}") from exc
        return
    try:
        yield sys.stdout
        sys.stdout.flush()
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise ConfigError(f"cannot write standard output: {exc}") from exc


_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        config = _resolve_config(args.command, args)
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
        with _output(args.out) as out:
            columns, table, shape = run_sweep(args.command, config)
            if args.format == "csv":
                out.writelines(_emit_csv(columns, table, shape))
            else:
                out.writelines(_emit_json(args.command, config, columns, table, shape))
    except ConfigError as exc:
        print(f"softmeas: config error: {exc}", file=sys.stderr)
        return 2
    except SoftMeasError as exc:
        print(f"softmeas: {exc}", file=sys.stderr)
        return 3
    except np.linalg.LinAlgError as exc:
        print(f"softmeas: invariant violation: eigensolver failed: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
