"""Shape-to-body-velocity maps.

Everything here produces or consumes the 3 x d matrix A(r) relating a shape
rate to a body twist, body_twist = A(r) @ rdot, with rows ordered (vx, vy,
omega).  Three routes are covered: JacobianConnection differentiates a pose
map through the group (``jacobian_connection_eval``, one ``poses_many``
call per block of rows), ConstraintConnection solves a linear force or
constraint balance, and PiecewiseConnection hands over a contact model's
exact stance connections.  Only JacobianConnection differentiates.

Provider protocol.  A provider offers:

- ``dim``: the number of shape coordinates d;
- ``catalog``: a tuple of its distinct stance labels, fixed for the
  provider; a smooth provider is the one-piece case ``(None,)``;
- ``contacts_many(shapes)``: an integer array with the catalog index of the
  stance selected at every row of an (N, d) array, zeros for one piece;
- ``connection_many(label, shapes)``: A of the named piece at every shape
  of a (..., d) array, typically (N, d), as a (..., 3, d) array whose entry
  at each leading index is bitwise the single-shape result; the piece may be
  evaluated past its switching surface.  A row where A(r) does not exist
  comes back non-finite, and an exception fails the whole call;
- ``builder``: a single-stance constraint provider's balance builder, else None.

Stances travel as catalog codes; a label is looked up only where it is
handed to ``connection_many`` or reported (events, ``Trajectory.contacts``,
the contact-set cells).  integrate_gait, sample_field and the loop
integrals of holonomy_vs_area code their shapes with ``contacts_many`` and
hand them to ``connection_by_stance``, one ``connection_many`` call per
stance; none deduplicates (an integrator step's end reuses the next step's
start row, and grid nodes and quadrature points are distinct).
``ConnectionProvider`` derives ``contacts_at(r)``, ``connection_for(label,
r)`` and ``connection_at(r)`` (the piece selected at r) as single-shape cases
for interactive use; no library code calls them.  Constraint builders and
``ConstraintSystem`` broadcast the same way: a builder maps shapes (..., d)
to blocks m (..., 3, 3) and n (..., 3, d), and
``linear_constraint_connection`` solves every leading index at once.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ._record import FrozenRecord
from .liegroup import Pose, compose_many, inverse_many, log_many

ConnectionMatrix = np.ndarray  # (3, d), rows vx, vy, omega

_COND_LIMIT = 1e12

# rows per constraint build and solve.  An optimize integration's ~101 stage
# rows make one block: a swimmer row costs 11.5 us in blocks of 64, 6.9 at
# 256.  A fresh 97 x 97 swimmer sweep takes 695 minor page faults at 256
# rows, 2520 at 512.  Rows are solved independently, so the size changes no
# result.
_CHUNK_ROWS = 256

# rows per pose-map differentiation.  A block's probes peak near 160 d^2
# bytes a row (tracemalloc: 0.74, 16 and 256 KB at d = 2, 10 and 40).  Per
# row, best of 9 over 100k-200k random shapes (2-core x86), blocks of 256 /
# 4096 / all rows: rotate_translate 0.61-1.07 / 0.50-0.54 / 0.65-0.68 us, a
# 4-link arm 2.7-3.0 / 2.8-3.1 / 3.6.  Against one call per batch (median
# of 10 alternating pairs), a 100k-step rotate_translate simulate went
# 1.20 -> 1.07 s, a 1000 x 1000 sweep 5.69 -> 5.55 s and a 100k-step 4-link
# arm 2.34 -> 1.99 s.  Rows are evaluated independently, so the size
# changes no result.
_JACOBIAN_ROWS = 4096

# Most nodes one field sweep, or shapes one residual check, may take: sampling, curvature and
# the CSV rows peak near a kilobyte per node at d = 2, so more is rejected, not run out of memory.
MAX_NODES = 1_000_000


class SingularConstraint(RuntimeError):
    """Raised when a computation that needs A(r) at every row meets a non-finite one, or derives a non-finite value."""


class PoseMap(FrozenRecord):
    """Deterministic smooth map from a shape vector to a Pose.

    fn maps one shape (d,) to a Pose.  The optional array form many maps
    shapes (N, d) to a (3, N) array whose column k is the (x, y, theta) of
    row k, theta in (-pi, pi], bitwise fn of that row; where fn raises, many
    raises the same error at its first such row.  Without many, poses_many
    calls fn row by row, in row order.  from_many builds a map whose fn is
    the one-row case of its array form, so the formula exists once.
    """

    def __init__(self, fn: Callable[[np.ndarray], Pose], dim: int,
                 many: Callable[[np.ndarray], np.ndarray] | None = None) -> None:
        self.__dict__.update(fn=fn, dim=dim, many=many)

    @classmethod
    def from_many(cls, many: Callable[[np.ndarray], np.ndarray], dim: int) -> "PoseMap":
        return cls(lambda r: Pose(*many(np.asarray(r, dtype=float)[None])[:, 0]), dim, many)

    def __call__(self, r: np.ndarray) -> Pose:
        return self.fn(r)

    def poses_many(self, shapes: np.ndarray) -> np.ndarray:
        """(3, N) poses at the rows of shapes (N, d)."""
        if self.many is not None:
            return self.many(shapes)
        return np.array([(g.x, g.y, g.theta) for g in map(self.fn, shapes)]).reshape(-1, 3).T


class ConstraintSystem(FrozenRecord):
    """Linear balance m @ xi + n @ rdot = 0 with m (..., 3, 3) and n (..., 3, d).

    Leading axes index independent balances, one per shape.
    """

    def __init__(self, m: np.ndarray, n: np.ndarray) -> None:
        m = np.asarray(m, dtype=float)
        n = np.asarray(n, dtype=float)
        if m.shape[-2:] != (3, 3):
            raise ValueError(f"twist coefficient block must be 3x3, got {m.shape}")
        if n.ndim != m.ndim or n.shape[:-1] != m.shape[:-1]:
            raise ValueError(f"shape-rate coefficient block must be 3xd, got {n.shape}")
        self.__dict__.update(m=m, n=n)


def jacobian_connection_eval(pose_map: PoseMap, shapes, h: float = 1e-5) -> np.ndarray:
    """Differentiate a pose map through the group at every shape of a (..., d) array.

    Column i is log(F(r - h e_i)^-1 F(r + h e_i)) / (2 h), the body-frame
    velocity per unit rate of coordinate i; accuracy O(h^2).  All 2 d probes
    of every shape go to F.poses_many in one (M, d) array, ordered shape by
    shape and column by column, lower probe first, so a map that fails
    fails at the same probe as a per-probe loop; the group arithmetic is
    then one array pass.  Returns (..., 3, d).
    """
    shapes = np.asarray(shapes, dtype=float)
    d = pose_map.dim
    if shapes.shape[-1:] != (d,):
        raise ValueError(f"shape has {shapes.shape} coordinates, pose map expects {d}")
    # probes[..., i, 0] is r - h e_i and probes[..., i, 1] is r + h e_i
    probes = shapes[..., None, None, :] + h * np.eye(d)[:, None, :] * [[-1.0], [1.0]]
    poses = pose_map.poses_many(probes.reshape(math.prod(probes.shape[:-1]), d))
    lo, hi = poses.reshape(3, -1, 2).transpose(2, 0, 1)
    cols = log_many(compose_many(inverse_many(lo), hi)) / (2.0 * h)
    return np.moveaxis(cols.reshape((3,) + shapes.shape), 0, -2)


def _cond_estimate(m: np.ndarray):
    """1-norm condition estimate of each 3x3 twist block via its adjugate.

    Cheaper than an SVD by an order of magnitude, which matters because this
    guard sits inside every integrator stage of the force-balance models.
    Returns a float for one block and an array over leading axes otherwise.
    """
    m = np.asarray(m, dtype=float)
    norm1 = abs(m).sum(axis=-2).max(axis=-1)
    # scaled by 2^-k, 2^k just above its norm, a block keeps its condition
    # exactly and its adjugate products stay in the float range.  A
    # non-finite block stays unscaled
    k = np.frexp(norm1)[1] * (norm1 < np.inf)
    m, norm1 = np.ldexp(m, -k[..., None, None]), np.ldexp(norm1, -k)
    # m.T puts the block indices first (transposed) and the leading axes last
    (a, d, g), (b, e, h), (c, f, i) = m.T
    c00 = e * i - f * h
    c01 = f * g - d * i
    c02 = d * h - e * g
    det = a * c00 + b * c01 + c * c02
    adj1 = np.maximum.reduce([
        abs(c00) + abs(c01) + abs(c02),
        abs(c * h - b * i) + abs(a * i - c * g) + abs(b * g - a * h),
        abs(b * f - c * e) + abs(c * d - a * f) + abs(a * e - b * d),
    ])
    usable = np.isfinite(det) & (det != 0.0)
    cond = np.where(usable, norm1.T * (adj1 / abs(np.where(usable, det, 1.0))), np.inf)
    return float(cond) if m.ndim == 2 else cond.T


def _max_abs(x: np.ndarray):
    """Largest |entry| of each trailing 2-D block, 0 for an empty block."""
    return np.abs(x).max(axis=(-2, -1), initial=0.0)


def _balance_scale(m: np.ndarray, n: np.ndarray, a: np.ndarray):
    """Size max(|n|, |m| max(|a|, 1)), at least 1, each balance's residual is judged against."""
    return np.maximum(np.maximum(_max_abs(n), _max_abs(m) * np.maximum(_max_abs(a), 1.0)), 1.0)


def linear_constraint_connection(system: ConstraintSystem) -> ConnectionMatrix:
    """Solve every balance for A = -m^-1 n via a pivoted solve.

    A balance with a non-finite entry or a condition estimate above 1e12
    has NaN rows.  One refinement pass, taken only by the balances that
    need it, keeps the residual ||m A + n||_inf at roundoff level.  Each
    leading index gives bitwise the result of solving its balance alone.
    """
    m, n = system.m, system.n
    # a block with a non-finite entry or 1-norm estimates inf; its overflows and NaNs go unreported
    with np.errstate(over="ignore", invalid="ignore"):
        usable = _cond_estimate(m) <= _COND_LIMIT
    if not np.isfinite(n).all():
        usable = usable & np.isfinite(n).all(axis=(-2, -1))
    if not np.all(usable):
        a = np.full(n.shape, np.nan)
        a[usable] = linear_constraint_connection(ConstraintSystem(m[usable], n[usable]))
        return a
    a = np.linalg.solve(m, -n)
    resid = m @ a + n
    resid_max = _max_abs(resid)
    # the threshold is at least 1e-13, so only larger residuals need the scale
    if np.any(resid_max > 1e-13):
        refine = resid_max > 1e-13 * _balance_scale(m, n, a)
        if refine.any():
            a[refine] -= np.linalg.solve(m[refine], resid[refine])
    return a


class ConnectionProvider:
    """Shared single-shape access for providers that define connection_many.

    Subclasses supply dim, connection_many and, unless they have a single
    piece labelled None, catalog and contacts_many; the single-shape calls
    here are their one-row case, not a second evaluation path.
    """

    catalog: tuple = (None,)
    builder = None

    def contacts_many(self, shapes) -> np.ndarray:
        return np.zeros(len(shapes), dtype=int)

    def contacts_at(self, r):
        return self.catalog[self.contacts_many(np.asarray(r, dtype=float)[None])[0]]

    def connection_for(self, label, r) -> ConnectionMatrix:
        return self.connection_many(label, np.asarray(r, dtype=float))

    def connection_at(self, r) -> ConnectionMatrix:
        return self.connection_for(self.contacts_at(r), r)


def connection_by_stance(provider, shapes, codes) -> np.ndarray:
    """A at every row of shapes (N, d), row i on stance provider.catalog[codes[i]], as (N, 3, d).

    Each stance present gets one connection_many call over its rows, in
    catalog order; non-finite entries are returned as computed.
    """
    catalog = provider.catalog
    out = np.empty((len(shapes), 3, shapes.shape[1]))
    for c in np.flatnonzero(np.bincount(codes, minlength=len(catalog))).tolist():
        at = codes == c
        out[at] = provider.connection_many(catalog[c], shapes[at])
    return out


def _finite_rows(a: np.ndarray, shapes: np.ndarray) -> np.ndarray:
    """a, (N, 3, d), or SingularConstraint naming the first row of shapes whose connection is not finite."""
    bad = ~np.isfinite(a).all(axis=(1, 2))
    if bad.any():
        raise SingularConstraint(f"non-finite connection at shape {shapes[bad.argmax()].tolist()}")
    return a


def _in_row_blocks(connection, shapes, rows: int) -> np.ndarray:
    """connection(shapes), (..., 3, d), over blocks of `rows` rows of an (N, d) array.

    Row blocks bound the temporaries of long integrations and large sweeps.
    """
    shapes = np.asarray(shapes, dtype=float)
    if shapes.ndim < 2 or len(shapes) <= rows:
        return connection(shapes)
    out = np.empty(shapes.shape[:-1] + (3, shapes.shape[-1]))
    for i in range(0, len(shapes), rows):
        out[i:i + rows] = connection(shapes[i:i + rows])
    return out


class JacobianConnection(ConnectionProvider):
    """Provider backed by a single smooth pose map."""

    def __init__(self, pose_map: PoseMap, h: float = 1e-5):
        self.pose_map = pose_map
        self.h = h
        self.dim = pose_map.dim

    def connection_many(self, label, shapes) -> np.ndarray:
        return _in_row_blocks(
            lambda block: jacobian_connection_eval(self.pose_map, block, self.h), shapes, _JACOBIAN_ROWS
        )


class ConstraintConnection(ConnectionProvider):
    """Provider solving a shape-dependent linear balance.

    The builder must broadcast: shapes (..., d) give blocks (..., 3, 3) and
    (..., 3, d).
    """

    def __init__(self, builder: Callable[[np.ndarray], ConstraintSystem], dim: int):
        self.builder = builder
        self.dim = dim

    def connection_many(self, label, shapes) -> np.ndarray:
        return _in_row_blocks(lambda block: linear_constraint_connection(self.builder(block)), shapes, _CHUNK_ROWS)


class PiecewiseConnection(ConnectionProvider):
    """Provider dispatching on a contact model's selected stance.

    The model must offer shape_dim, contact_catalog(), contacts_many(shapes)
    (indices into that catalog) and stance_connection(c, shapes), which holds
    past the stance's switching surface.
    """

    def __init__(self, model):
        self.model = model
        self.catalog = model.contact_catalog()
        self.dim = model.shape_dim

    def contacts_many(self, shapes) -> np.ndarray:
        return self.model.contacts_many(np.asarray(shapes, dtype=float))

    def connection_many(self, c, shapes) -> np.ndarray:
        return self.model.stance_connection(c, shapes)
