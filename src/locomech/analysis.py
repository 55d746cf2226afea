"""Shape-space fields and loop diagnostics.

Connection matrices are sampled over rectangular shape-space grids, a
curvature diagnostic combines the coordinate curl of the connection with the
column bracket, and closed loops are scored by comparing their integrated
displacement exponent against the curvature surface integral over the
enclosed region.  The two numbers agree only to leading order; the report
never asserts equality.
"""

from __future__ import annotations

import math

import numpy as np

from ._numerics import _gauss_legendre
from ._record import FrozenRecord, Record
from .connection import MAX_NODES, SingularConstraint, connection_by_stance
from .integrator import integrate_gait, net_displacement
from .liegroup import Twist, bracket_many
from .shapespace import WaypointGait


class LoopOutsideGrid(ValueError):
    """Raised when a loop leaves the sampled grid region."""


class GridSpec(FrozenRecord):
    """Uniform rectangular sampling window over two shape coordinates.

    For providers with more than two coordinates, `axes` names the swept pair
    and `base` supplies the fixed values of the rest.
    """

    def __init__(self, lo: tuple[float, float], hi: tuple[float, float], counts: tuple[int, int],
                 axes: tuple[int, int] = (0, 1), base: np.ndarray | None = None) -> None:
        if len(lo) != 2 or len(hi) != 2 or len(counts) != 2:
            raise ValueError("grid spec needs two entries each for lo, hi, counts")
        if not (lo[0] < hi[0] and lo[1] < hi[1]):
            raise ValueError("grid bounds must satisfy lo < hi on both axes")
        if not all(math.isfinite(h - l) for l, h in zip(lo, hi)):
            raise ValueError("grid span hi - lo must be finite on both axes")
        if min(counts) < 2:
            raise ValueError("need at least 2 nodes per axis")
        if counts[0] * counts[1] > MAX_NODES:
            raise ValueError(f"{counts[0]} x {counts[1]} nodes exceed {MAX_NODES}")
        if axes[0] == axes[1]:
            raise ValueError("swept axes must differ")
        self.__dict__.update(lo=lo, hi=hi, counts=counts, axes=axes, base=base)


class FieldGrid(Record):
    """Connection samples conn (n1, n2, 3, d); contacts (n1, n2) indexes catalog, zeros for one piece."""

    def __init__(self, axis1: np.ndarray, axis2: np.ndarray, axes: tuple[int, int], base: np.ndarray, conn: np.ndarray,
                 contacts: np.ndarray, catalog: tuple, singular: np.ndarray) -> None:
        self.axis1 = axis1
        self.axis2 = axis2
        self.axes = axes
        self.base = base
        self.conn = conn
        self.contacts = contacts
        self.catalog = catalog
        self.singular = singular


def sample_field(provider, spec: GridSpec) -> FieldGrid:
    """Evaluate the provider's connection at every grid node.

    The nodes of each stance go to the provider in one connection_many call,
    with no deduplication: grid nodes are distinct.  A node whose connection
    has a non-finite entry, where A(r) does not exist, is flagged singular
    and stores a zero connection.  The stance codes take the narrowest
    unsigned dtype, so curvature's shifted copies of them stay small.
    """
    d = provider.dim
    if spec.axes[0] >= d or spec.axes[1] >= d or min(spec.axes) < 0:
        raise ValueError(f"swept axes {spec.axes} outside provider coordinates 0..{d - 1}")
    base = np.zeros(d) if spec.base is None else np.asarray(spec.base, dtype=float)
    if base.shape != (d,):
        raise ValueError(f"base shape must have {d} coordinates, got {base.shape}")
    axis1 = np.linspace(spec.lo[0], spec.hi[0], spec.counts[0])
    axis2 = np.linspace(spec.lo[1], spec.hi[1], spec.counts[1])
    n1, n2 = spec.counts
    nodes = np.tile(base, (n1, n2, 1))
    nodes[..., list(spec.axes)] = np.stack(np.meshgrid(axis1, axis2, indexing="ij"), axis=-1)
    nodes = nodes.reshape(n1 * n2, d)
    catalog = provider.catalog
    codes = provider.contacts_many(nodes)
    conn = connection_by_stance(provider, nodes, codes)
    singular = ~np.isfinite(conn).all(axis=(1, 2))
    conn[singular] = 0.0
    return FieldGrid(
        axis1=axis1,
        axis2=axis2,
        axes=spec.axes,
        base=base,
        conn=conn.reshape(n1, n2, 3, d),
        contacts=codes.reshape(n1, n2).astype(np.min_scalar_type(len(catalog) - 1)),
        catalog=catalog,
        singular=singular.reshape(n1, n2),
    )


class CurvatureField(Record):
    """Curvature diagnostic D over a sampled grid, with validity flags.

    values[i, j] holds (D_vx, D_vy, D_omega); boundary marks one-sided
    stencils, valid is False where the stencil crossed a stance change or a
    singular node.
    """

    def __init__(self, values: np.ndarray, valid: np.ndarray, boundary: np.ndarray) -> None:
        self.values = values
        self.valid = valid
        self.boundary = boundary


def _column_bracket(a: np.ndarray, i1: int, i2: int) -> np.ndarray:
    """Bracket of connection columns i1 and i2, (..., 3) over any leading grid axes."""
    cols = np.moveaxis(a, -2, 0)
    return np.moveaxis(bracket_many(cols[..., i1], cols[..., i2]), 0, -1)


def _derivative(f: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Centered differences along `axis`, (-3, 4, -1)/(2h) one-sided at the ends."""
    f = np.moveaxis(f, axis, 0)
    d = np.empty_like(f)
    d[1:-1] = (f[2:] - f[:-2]) / (2 * h)
    d[0] = (-3 * f[0] + 4 * f[1] - f[2]) / (2 * h)
    d[-1] = (3 * f[-1] - 4 * f[-2] + f[-3]) / (2 * h)
    return np.moveaxis(d, 0, axis)


def _stencil_neighbours(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The two other nodes of each node's stencil along one axis."""
    a = np.arange(n) - 1
    b = np.arange(n) + 1
    a[0], b[0] = 1, 2
    a[-1], b[-1] = n - 3, n - 2
    return a, b


def curvature(field: FieldGrid) -> CurvatureField:
    """Curl of the swept connection columns plus their bracket at every node.

    Interior nodes use centered differences, boundary nodes one-sided ones
    (flagged).  A stencil touching a singular node or mixing stance pieces is
    marked invalid instead of differencing across the discontinuity.
    """
    n1, n2 = field.conn.shape[:2]
    if n1 < 3 or n2 < 3:
        raise ValueError(f"curvature needs at least a 3x3 grid, got {n1}x{n2}")
    a1, a2 = field.axes
    h1 = field.axis1[1] - field.axis1[0]
    h2 = field.axis2[1] - field.axis2[0]
    boundary = np.zeros((n1, n2), dtype=bool)
    boundary[[0, -1], :] = True
    boundary[:, [0, -1]] = True

    ia, ib = _stencil_neighbours(n1)
    ja, jb = _stencil_neighbours(n2)

    def stencil(f: np.ndarray) -> tuple:
        return f[ia, :], f[ib, :], f[:, ja], f[:, jb]

    valid = ~field.singular
    for other in stencil(field.singular):
        valid &= ~other
    for other in stencil(field.contacts):
        valid &= other == field.contacts

    conn = field.conn
    d1_col2 = _derivative(conn[:, :, :, a2], h1, axis=0)
    d2_col1 = _derivative(conn[:, :, :, a1], h2, axis=1)
    values = d1_col2 - d2_col1 + _column_bracket(conn, a1, a2)
    values[~valid] = np.nan
    return CurvatureField(values=values, valid=valid, boundary=boundary)


class HolonomyAreaReport(Record):
    """Loop displacement exponent next to the curvature surface integral.

    The two agree to leading order in loop size; `gap` reports their
    componentwise difference without asserting anything about it.
    """

    def __init__(self, holonomy: Twist, area_integral: np.ndarray, curl_part: np.ndarray, bracket_part: np.ndarray,
                 gap: np.ndarray) -> None:
        self.holonomy = holonomy
        self.area_integral = area_integral
        self.curl_part = curl_part
        self.bracket_part = bracket_part
        self.gap = gap

    @property
    def gap_norm(self) -> float:
        return float(np.linalg.norm(self.gap))


def _loop_polygon(gait, samples: int) -> np.ndarray:
    if isinstance(gait, WaypointGait):
        return gait.points.copy()
    ts = np.linspace(0.0, gait.period, samples, endpoint=False)
    return gait.evaluate_many(ts)[0]


def _connections(provider, shapes: np.ndarray) -> np.ndarray:
    """A at every row of shapes on the stance it selects; a non-finite row raises."""
    a = connection_by_stance(provider, shapes, provider.contacts_many(shapes))
    bad = ~np.isfinite(a).all(axis=(1, 2))
    if bad.any():
        raise SingularConstraint(f"non-finite connection at shape {shapes[bad.argmax()].tolist()}")
    return a


def _line_integral(provider, gait, samples: int) -> np.ndarray:
    """Loop integral of A dr, which is the time integral of the body twist."""
    if isinstance(gait, WaypointGait):
        nodes, weights = _gauss_legendre(12)
        t0, t1 = gait.times[:-1, None], gait.times[1:, None]
        half = 0.5 * (t1 - t0)
        times, scales = (0.5 * (t0 + t1) + half * nodes).ravel(), (half * weights).ravel()
    else:
        dt = gait.period / samples
        times, scales = np.arange(samples) * dt, np.full(samples, dt)
    shapes, rates = gait.evaluate_many(times)
    return scales @ (_connections(provider, shapes) @ rates[:, :, None])[:, :, 0]


def _bracket_surface_integral(provider, polygon: np.ndarray, axes, base, order: int = 6) -> np.ndarray:
    """Signed integral of the column bracket over the region a loop encloses.

    The polygon is fanned into triangles about its centroid (it must be
    star-shaped there) and each triangle integrated with a tensor rule.
    """
    nodes, weights = _gauss_legendre(order)
    u = 0.5 * (nodes + 1.0)
    wu = 0.5 * weights
    centroid = polygon.mean(axis=0)
    v1 = polygon - centroid
    v2 = np.roll(polygon, -1, axis=0) - centroid
    signed_area = 0.5 * (v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0])
    keep = signed_area != 0.0
    v1, v2 = v1[keep, None, None], v2[keep, None, None]
    # Duffy map of the unit square onto each triangle, indexed [triangle, u, v]
    x = centroid + u[:, None, None] * (v1 + u[None, :, None] * (v2 - v1))
    shapes = np.empty(x.shape[:-1] + (len(base),))
    shapes[:] = base
    shapes[..., list(axes)] = x
    a = _connections(provider, shapes.reshape(-1, len(base)))
    brackets = _column_bracket(a, axes[0], axes[1]).reshape(x.shape[:-1] + (3,))
    return (2.0 * signed_area[keep]) @ np.einsum("i,j,tijk->tk", wu * u, wu, brackets)


def holonomy_vs_area(
    provider,
    gait,
    field: FieldGrid,
    step: float = 1e-3,
    samples: int = 4096,
) -> HolonomyAreaReport:
    """Compare a loop's displacement exponent with the curvature area integral.

    The loop must stay inside the sampled grid window.  The curl part of the
    surface integral is evaluated exactly as the loop integral of A dr; the
    bracket part is integrated over the enclosed region directly.
    """
    polygon = _loop_polygon(gait, samples=min(samples, 512))
    swept = polygon[:, list(field.axes)]
    lo, hi = (field.axis1[0], field.axis2[0]), (field.axis1[-1], field.axis2[-1])
    if (swept.min(axis=0) < lo).any() or (swept.max(axis=0) > hi).any():
        raise LoopOutsideGrid("gait loop leaves the sampled grid window")
    traj = integrate_gait(provider, gait, cycles=1, step=step)
    hol = net_displacement(traj)
    curl_part = _line_integral(provider, gait, samples)
    bracket_part = _bracket_surface_integral(provider, swept, field.axes, field.base)
    area = curl_part + bracket_part
    return HolonomyAreaReport(
        holonomy=hol, area_integral=area, curl_part=curl_part, bracket_part=bracket_part,
        gap=hol.to_array() - area,
    )
