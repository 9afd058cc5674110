"""Command-line sweep runner.

Usage::

    softmeas <command> [--config FILE] [--param name=value ...]
                       [--out FILE] [--format csv|json]
                       [--kappa-convention gram|paper] [--jobs N]

Commands: ``single``, ``repeat``, ``continuous``, ``fig2a``, ``fig2b``,
``fig3``, ``isweep``. Parameters come from built-in defaults, overridden by
a flat ``key = value`` config file, overridden by ``--param`` flags. Grid
parameters use ``start:stop:points``; complex scalars use ``re,im``.

Each command is one entry of the ``_COMMANDS`` table: its defaults, grid
names, output names and sweep function. The sweep function evaluates the
grid in one call, validating the inputs shared by all points once and each
stack of per-point matrices once; the two-level closed forms of ``fig2a``,
``fig2b``, ``isweep``, ``repeat`` and ``continuous`` take whole arrays.
Grids of more than ``_BLOCK_POINTS`` points are evaluated in blocks, each
written in place into one float table. The output is written only after the
whole sweep has been computed and checked, and then ``_BLOCK_POINTS`` rows
at a time, so the text held at once does not grow with the grid. It is
formatted from the float table column by column: each
grid-axis value is formatted once per axis and its string repeated down its
column, each output value once, and one row template joins them. ``--jobs``
is accepted for compatibility and has no effect.

Exit codes: 0 success, 2 configuration error, 3 invariant violation while
computing or emitting rows; a check that fails at a grid point names the
point's index and parameter values. The ``--out`` file is opened before the
sweep runs, as shell redirection opens it: an unwritable path exits 2 before
any work, and a sweep that fails leaves the file empty.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import replace
from itertools import chain, cycle, islice, repeat
from typing import Callable, Iterator, NamedTuple, TextIO

import numpy as np

from .errors import ConfigError, InvalidParams, SoftMeasError
from .information import (
    CompetitionParams,
    StateEnsemble,
    _bloch_y_rotation,
    coherent_info_soft,
    coherent_info_two_level,
    compete_two_level,
    eve_bob_semiclassical,
    holevo_info,
    meter_ensemble,
    semiclassical_info_continuous,
)
from .matcore import DensityMatrix, _label, _unchecked_entropy, partial_trace, von_neumann_entropy
from .measurement import (
    SoftMeasurement,
    TwoLevelMeterParams,
    _meter_mix,
    apply_soft,
    two_level_gram,
)
from .repeated import (
    _CONVENTIONS,
    ContinuousLimitParams,
    RepeatedMeasurement,
    _continuous_joint,
    _convention,
    _two_level_matrix,
    continuous_gram_sqrt,
    joint_dm_repeated,
    meter_dm_repeated,
    two_level_gram_sqrt,
)

HALF_PI = math.pi / 2.0


def _parse_float(raw: str, name: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"parameter {name}: expected a number, got {raw!r}") from exc


def _parse_complex(raw: str, name: str) -> complex:
    parts = raw.split(",")
    if len(parts) != 2:
        raise ConfigError(f"parameter {name}: expected 're,im', got {raw!r}")
    return complex(_parse_float(parts[0], name), _parse_float(parts[1], name))


def _parse_grid(raw: str, name: str) -> np.ndarray:
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
    if points == 1:
        return np.array([start])
    # An infinite end point makes NaN entries, which the command's own
    # domain checks then reject; numpy need not warn about them first.
    with np.errstate(invalid="ignore"):
        return np.linspace(start, stop, points)


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
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
    return values


def _resolve_config(command: str, args: argparse.Namespace) -> dict[str, str]:
    config = dict(_COMMANDS[command].defaults)
    config["kappa_convention"] = "gram"
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
    if config["kappa_convention"] not in _CONVENTIONS:
        expected = " or ".join(map(repr, _CONVENTIONS))
        raise ConfigError(
            f"kappa_convention must be {expected}, got {config['kappa_convention']!r}"
        )
    return config


def _unit_interval(value: float, name: str) -> float:
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"parameter {name} must lie in [0, 1], got {value}")
    return value


def _rho_from_config(config: dict[str, str]) -> DensityMatrix:
    p = _unit_interval(_parse_float(config["rho_p"], "rho_p"), "rho_p")
    mu = _unit_interval(_parse_float(config["rho_mu"], "rho_mu"), "rho_mu")
    phase = _parse_float(config["rho_phase"], "rho_phase")
    if not math.isfinite(phase):
        raise InvalidParams(f"rho_phase must be finite, got {phase}")
    off = mu * math.sqrt(p * (1.0 - p)) * cmath.exp(1j * phase)
    return DensityMatrix(np.array([[p, off], [np.conj(off), 1.0 - p]]))


def _entanglement_from_r12(r12: complex) -> np.ndarray:
    if not cmath.isfinite(r12):
        raise ConfigError(f"parameter r12 must be finite, got {r12}")
    if abs(r12) > 1.0 + 1e-12:
        raise ConfigError(f"parameter r12 must have modulus <= 1, got {r12}")
    return np.array([[1.0, r12], [np.conj(r12), 1.0]])


def _grid_axes(command: str, config: dict[str, str]) -> list[np.ndarray]:
    axes = []
    for name in _COMMANDS[command].grids:
        grid = _parse_grid(config[name], name)
        if command == "repeat" and name == "n":
            # Checked before the cast to int64, which cannot hold the others.
            grid = np.rint(grid)
            bad = grid[~((grid >= 1) & (grid < 2.0**63))]
            if bad.size:
                raise ConfigError(f"parameter n: repetition count {bad[0]:g} is outside [1, 2**63)")
            grid = np.unique(grid.astype(np.int64))
        axes.append(grid)
    return axes


# Each command evaluates its whole grid in one call. A sweep function takes
# the resolved config and one open-mesh array per grid axis (broadcastable
# to the grid shape) and returns its output columns, also broadcastable to
# the grid shape. Inputs shared by the whole grid are built and validated
# once; the matrix checks run once over each stack. A state derived from
# checked inputs (a meter, joint or object state) is not checked again.


def _basis_ensemble(probs) -> StateEnsemble:
    return StateEnsemble(
        probs=np.asarray(probs, dtype=float),
        states=(np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)),
    )


def _two_level_inputs(
    config: dict[str, str],
) -> tuple[TwoLevelMeterParams, SoftMeasurement, DensityMatrix]:
    params = TwoLevelMeterParams(
        theta=_parse_float(config["theta"], "theta"),
        chi=_parse_float(config["chi"], "chi"),
    )
    measurement = SoftMeasurement(
        entanglement=_entanglement_from_r12(_parse_complex(config["r12"], "r12")),
        gram=two_level_gram(params),
    )
    return params, measurement, _rho_from_config(config)


def _sweep_fig2a(config, q, mu):
    p = _unit_interval(_parse_float(config["p"], "p"), "p")
    return [coherent_info_two_level(q, p, mu)]


def _sweep_fig2b(config, q_eve, q_bob):
    mu = _unit_interval(_parse_float(config["mu"], "mu"), "mu")
    return compete_two_level(CompetitionParams(q_eve=q_eve, q_bob=q_bob, mu=mu))


# fig3's inputs shared by every grid point of every sweep: the balanced
# basis ensemble and the rigid receiver, built and checked once, at import,
# with the receiver's meter states taken then too.
_FIG3_ENSEMBLE = _basis_ensemble([0.5, 0.5])
_RIGID_BOB = SoftMeasurement(entanglement=np.eye(2), gram=np.eye(2))
_RIGID_BOB.meter_vectors


def _sweep_fig3(config, q, theta):
    dephase = _two_level_matrix(1.0, q, q)
    info = eve_bob_semiclassical(_FIG3_ENSEMBLE, _bloch_y_rotation(theta), dephase, _RIGID_BOB)
    return [info]


def _sweep_continuous(config, t):
    kappa = _parse_float(config["kappa"], "kappa")
    chi_dot = _parse_float(config["chi_dot"], "chi_dot")
    r_dot = _parse_complex(config["r_dot"], "r_dot")
    rho = _rho_from_config(config)
    params = ContinuousLimitParams(kappa=kappa, t=t, chi_dot=chi_dot, r_dot=r_dot)
    # The meter and joint states share one build of the meter vectors. Their
    # overlap decays at the convention's rate, as the overlap of I_s does.
    rate = _convention(config["kappa_convention"])
    vectors = continuous_gram_sqrt(replace(params, kappa=rate * kappa))
    meter = _meter_mix(vectors, np.diag(rho.matrix).real)
    joint = _continuous_joint(rho.matrix, params, vectors)
    info = semiclassical_info_continuous(kappa, t, convention=config["kappa_convention"])
    return [
        meter[..., 0, 0].real,
        meter[..., 0, 1].real,
        meter[..., 0, 1].imag,
        meter[..., 1, 1].real,
        _unchecked_entropy(joint),
        _unchecked_entropy(meter),
        info,
    ]


def _sweep_repeat(config, n):
    params, measurement, rho = _two_level_inputs(config)
    vectors = two_level_gram_sqrt(params, n)
    repeated = RepeatedMeasurement(base=measurement, n=n)
    joint = joint_dm_repeated(rho, repeated)
    meter = meter_dm_repeated(rho, repeated)
    return [
        vectors[..., 0, 0].real,
        vectors[..., 0, 1].real,
        vectors[..., 0, 1].imag,
        vectors[..., 1, 1].real,
        _unchecked_entropy(meter),
        _unchecked_entropy(joint),
        coherent_info_soft(rho, repeated),
    ]


def _sweep_single(config):
    _, measurement, rho = _two_level_inputs(config)
    q = abs(measurement.entanglement[0, 1] * measurement.gram[0, 1])
    joint = apply_soft(measurement, rho)
    meter = partial_trace(joint, [2, 2], keep=1)
    obj = partial_trace(joint, [2, 2], keep=0)
    populations = np.diag(rho.matrix).real
    info_s = holevo_info(meter_ensemble(_basis_ensemble(populations), measurement))
    info_c = coherent_info_soft(rho, measurement)
    return [
        q,
        von_neumann_entropy(rho),
        _unchecked_entropy(obj),
        _unchecked_entropy(meter),
        _unchecked_entropy(joint),
        info_c,
        info_s,
    ]


def _sweep_isweep(config, q):
    p = _unit_interval(_parse_float(config["p"], "p"), "p")
    mu = _unit_interval(_parse_float(config["mu"], "mu"), "mu")
    grams = _two_level_matrix(1.0, q, q)
    receiver = SoftMeasurement(np.broadcast_to(np.eye(2), grams.shape), grams)
    meters = meter_ensemble(_basis_ensemble([p, 1.0 - p]), receiver)
    info_s = holevo_info(meters)
    return [coherent_info_two_level(q, p, mu), info_s]


class _Command(NamedTuple):
    """One command: its parameter defaults (as config-file strings), the
    names of its sweep grids among them in emission order, the names of its
    outputs and its sweep function."""

    defaults: dict[str, str]
    grids: tuple[str, ...]
    outputs: tuple[str, ...]
    sweep: Callable

    @property
    def columns(self) -> tuple[str, ...]:
        return self.grids + self.outputs


_RHO_DEFAULTS = {"rho_p": "0.5", "rho_mu": "1.0", "rho_phase": "0.0"}
_METER_DEFAULTS = {"theta": repr(math.pi / 3.0), "chi": "0.0", "r12": "1,0"}

_COMMANDS: dict[str, _Command] = {
    "fig2a": _Command(
        {"q": "0:1:51", "mu": "0:1:51", "p": "0.5"}, ("q", "mu"), ("I_c",), _sweep_fig2a
    ),
    "fig2b": _Command(
        {"q_E": "0:1:51", "q_B": "0:1:51", "mu": "1.0"},
        ("q_E", "q_B"),
        ("I_c_E", "I_c_B"),
        _sweep_fig2b,
    ),
    "fig3": _Command(
        {"q": "0:1:51", "theta": f"0:{HALF_PI!r}:51"}, ("q", "theta"), ("I_s",), _sweep_fig3
    ),
    "continuous": _Command(
        {"t": "0:5:51", "kappa": "1.0", "chi_dot": "0.0", "r_dot": "0,0", **_RHO_DEFAULTS},
        ("t",),
        (
            "meter_00",
            "meter_01_re",
            "meter_01_im",
            "meter_11",
            "joint_entropy",
            "meter_entropy",
            "I_s",
        ),
        _sweep_continuous,
    ),
    "repeat": _Command(
        {"n": "1:10:10", **_METER_DEFAULTS, **_RHO_DEFAULTS},
        ("n",),
        (
            "psi_00",
            "psi_01_re",
            "psi_01_im",
            "psi_11",
            "meter_entropy",
            "joint_entropy",
            "I_c",
        ),
        _sweep_repeat,
    ),
    "single": _Command(
        {**_METER_DEFAULTS, **_RHO_DEFAULTS},
        (),
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
        {"q": "0:1:51", "p": "0.5", "mu": "1.0"}, ("q",), ("I_c", "I_s"), _sweep_isweep
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
    table: np.ndarray, shape: tuple[int, ...], fmt: str, plus_zero: bool = False
) -> Iterator[Iterator[tuple]]:
    """The rows of a float table over a grid of ``shape``, as tuples for a
    row template, in chunks of up to ``_BLOCK_POINTS`` rows: the grid columns
    (the first ``len(shape)``) as strings, each axis value formatted once by
    ``fmt`` and repeated as C order repeats it, then the output values as
    floats. With ``plus_zero`` each value has 0.0 added first, which turns
    -0.0 into 0.0.

    Axis ``k`` is read from its own column at the stride of the axes after
    it, so the strings carry the table's bits, signed zeros included. The
    grid columns are drawn lazily from the axis strings, and each chunk's
    output floats are converted when it is reached, so no object per row
    outlives its chunk. The grid columns are shared between chunks: a chunk
    must be consumed before the next one is drawn.
    """
    grids = []
    for k, n in enumerate(shape):
        inner = math.prod(shape[k + 1 :])
        # A later axis of length 0 leaves no rows, so no axis value to read.
        values = table[: n * inner : inner or 1, k]
        strings = [fmt % value for value in (values + 0.0 if plus_zero else values).tolist()]
        column = chain.from_iterable(map(repeat, strings, repeat(inner))) if inner > 1 else strings
        # A later axis runs through its values once per value of the axes
        # before it; ``cycle`` keeps one run, at most rows / shape[0] references.
        grids.append(cycle(column) if k else iter(column))
    for start in range(0, len(table), _BLOCK_POINTS):
        outputs = table[start : start + _BLOCK_POINTS, len(shape) :]
        if plus_zero:
            outputs = outputs + 0.0
        size = len(outputs)
        yield zip(*(islice(column, size) for column in grids), *outputs.T.tolist())


def _emit_csv(
    columns: tuple[str, ...], table: np.ndarray, shape: tuple[int, ...]
) -> Iterator[str]:
    """CSV text of a float table over a grid of ``shape``, each value as
    ``_format_value`` writes it, in pieces: the header line, then one piece
    per chunk of rows.

    ``%.12g`` formats a float as ``format(v, ".12g")`` does, and adding 0.0
    first turns -0.0 into 0. Each grid-axis value is formatted once (see
    ``_row_chunks``), each output value once per row.
    """
    grids = len(shape)
    line = ",".join(["%s"] * grids + ["%.12g"] * (len(columns) - grids)) + "\n"
    yield ",".join(columns) + "\n"
    for chunk in _row_chunks(table, shape, "%.12g", plus_zero=True):
        yield "".join(map(line.__mod__, chunk))


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
    finite float as :mod:`json` does. Each grid-axis value is formatted once
    (see ``_row_chunks``), each output value once per row.
    """
    head = json.dumps({"command": command, "config": config, "columns": list(columns)}, indent=2)
    yield f'{head[:-2]},\n  "rows": '
    if not len(table):
        yield "[]\n}\n"
        return
    grids = len(shape)
    cells = ["      %s"] * grids + ["      %r"] * (len(columns) - grids)
    row = "    [\n" + ",\n".join(cells) + "\n    ]"
    separator = "[\n"
    for chunk in _row_chunks(table, shape, "%r"):
        yield separator + ",\n".join(map(row.__mod__, chunk))
        separator = ",\n"
    yield "\n  ]\n}\n"


def _check_finite(columns: tuple[str, ...], table: np.ndarray, shape: tuple[int, ...]) -> None:
    """Raise at the first point of a block of ``shape`` whose row of
    ``table`` holds a non-finite value."""
    bad = np.argwhere(~np.isfinite(table))
    if bad.size:
        row, j = bad[0]
        index = tuple(int(i) for i in np.unravel_index(row, shape))
        raise SoftMeasError(
            f"invariant violation: non-finite value in column {columns[j]!r}", index=index or None
        )


def _relabeled(
    message: str, old: tuple[tuple[int, ...], ...], new: tuple[tuple[int, ...], ...]
) -> str:
    """``message`` with the label of each member in ``old`` (in the order
    the message names them) replaced by the label of its match in ``new``."""
    parts, rest = [], message
    for i, j in zip(old, new):
        head, label, rest = rest.partition(_label(i))
        parts += [head, _label(j) if label else ""]
    return "".join(parts) + rest


def run_sweep(
    command: str, config: dict[str, str]
) -> tuple[tuple[str, ...], np.ndarray, tuple[int, ...]]:
    """Compute the float table of a sweep, one row per grid point in grid
    order and one column per name in the returned columns, and the grid's
    shape (``()`` for a command without grids).

    The command's sweep function evaluates a block of up to
    ``_BLOCK_POINTS`` grid points (whole rows of the first grid axis) in
    one call, and the block's columns are written into the table in place;
    a grid of that size or smaller is one block. When a check,
    including the check that every output is finite, fails at a grid
    point, the error message names the command, the point's grid index and
    its parameter values.
    """
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    spec = _COMMANDS[command]
    axes = _grid_axes(command, config)
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    shape = tuple(len(axis) for axis in axes)
    columns = spec.columns
    table = np.empty((math.prod(shape), len(columns)))
    inner = math.prod(shape[1:])
    step = max(1, _BLOCK_POINTS // inner)
    for start in range(0, shape[0], step) if shape else [0]:
        block = [m[start : start + step] for m in mesh[:1]] + list(mesh[1:])
        try:
            outputs = spec.sweep(config, *block)
            block_shape = np.broadcast_shapes(*(m.shape for m in block))
            rows = table[start * inner : start * inner + math.prod(block_shape)]
            cells = rows.reshape(*block_shape, len(columns))
            for j, column in enumerate((*block, *outputs)):
                cells[..., j] = column
            _check_finite(columns, rows, block_shape)
        except SoftMeasError as exc:
            if exc.index is not None and len(exc.index) == len(shape):
                index = (exc.index[0] + start, *exc.index[1:])
                point = ", ".join(
                    f"{name}={_format_value(np.broadcast_to(m, shape)[index])}"
                    for name, m in zip(spec.grids, mesh)
                )
                flat = int(np.ravel_multi_index(index, shape))
                # The check named each member by its index within the block.
                named = tuple((i[0] + start, *i[1:]) for i in exc.indices)
                message = _relabeled(str(exc), exc.indices, named)
                exc.args = (f"{command} grid point {flat} ({point}): {message}",)
                exc.index, exc.indices = index, named
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

    The file is opened, and truncated, before the sweep runs, as shell
    redirection opens it, so that an unwritable path fails before any work
    is done. An error opening or writing it is a :class:`ConfigError`.
    """
    if not path:
        yield sys.stdout
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            yield handle
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc}") from exc


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
