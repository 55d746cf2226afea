"""Concrete planar locomotor models.

Articulated chains with anisotropic viscous drag, planted-foot crawlers whose
stance pieces are holonomic pose maps, walkers whose feet slip against
anisotropic viscous ground, and a dense point-contact surrogate that
approaches the drag integral as the contact count grows.  Each model hands
the connection providers a pose map, a linear balance or, for a planted
stance, the exact connection, so only the pose maps are ever differenced
(by JacobianConnection).  Swimming links and slipping feet are contacts of one
resistive-force assembler, so their balances are one formula.

Kinematic conventions: chain link frames sit at link midpoints with x along
the link, and the body frame is the middle link's frame.  A foot at leg angle
zero points along its rest direction from the hip; positive leg angle rotates
leg and foot together, and the foot frame orientation equals the leg angle.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ._numerics import _gauss_legendre
from ._record import FrozenRecord
from .connection import ConstraintConnection, ConstraintSystem, PiecewiseConnection, PoseMap
from .liegroup import compose_many, inverse_many, wrap_many
from .shapespace import _readonly


class ChainModel(FrozenRecord):
    """Open kinematic chain of hinged links; joint i bends link i into link i+1.

    The link count must be odd so the body frame (middle link midpoint,
    x along the link) is unambiguous.
    """

    def __init__(self, lengths: np.ndarray) -> None:
        lengths = _readonly(np.atleast_1d(lengths))
        if lengths.ndim != 1 or lengths.shape[0] % 2 == 0:
            raise ValueError(f"link count must be odd, got {lengths.shape}")
        if not np.all(lengths > 0.0):
            raise ValueError("link lengths must be positive")
        self.__dict__.update(lengths=lengths)

    @property
    def n_links(self) -> int:
        return self.lengths.shape[0]

    @property
    def shape_dim(self) -> int:
        return self.n_links - 1

    @property
    def mid(self) -> int:
        return self.n_links // 2


def _link_frames(chain: ChainModel, r) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Body-frame (x, y, theta) of every link midpoint, each (..., n_links).

    The middle link is the identity.  Frames are chained outward from it with
    the products a scalar compose chain of Pose objects makes, so every entry
    is bitwise equal to that single-shape Pose result.
    """
    r = np.asarray(r, dtype=float)
    if r.shape[-1:] != (chain.shape_dim,):
        raise ValueError(f"chain expects {chain.shape_dim} joint angles, got {r.shape}")
    n, mid, half = chain.n_links, chain.mid, 0.5 * chain.lengths
    x, y, th = (np.zeros(r.shape[:-1] + (n,)) for _ in range(3))
    # every frame angle is a partial sum of joint angles, so below pi in
    # total (with a margin for rounding) no angle needs a wrap
    wrap = not np.all(np.abs(r).sum(axis=-1) < 3.0)
    # (source link, new link, joint, side): frames[new] = frames[source] *
    # Pose(+-L_source/2, 0, +-r_joint) * Pose(+-L_new/2, 0, 0)
    hops = [(k, k + 1, k, 1.0) for k in range(mid, n - 1)]
    hops += [(k + 1, k, k, -1.0) for k in range(mid - 1, -1, -1)]
    for src, new, j, sign in hops:
        angle = sign * r[..., j]
        joint = (sign * half[src], 0.0, wrap_many(angle) if wrap else angle)
        hop = compose_many(joint, (sign * half[new], 0.0, 0.0), wrap)
        x[..., new], y[..., new], th[..., new] = compose_many((x[..., src], y[..., src], th[..., src]), hop, wrap)
    return x, y, th


@functools.lru_cache(maxsize=32)
def _swing_signs(n_links: int) -> np.ndarray:
    """(d + 1, n_links) sign with which body spin (row 0) and joint k (row k + 1) turn each link.

    Joint k turns link j iff j is outboard of k relative to the middle link;
    the sign follows which side of the chain the joint drives.
    """
    mid, ks, own = n_links // 2, np.arange(n_links - 1)[:, None], np.arange(n_links)[None, :]
    coef = ((ks >= mid) & (own >= ks + 1)).astype(float) - ((ks < mid) & (own <= ks)).astype(float)
    coef = np.vstack([np.ones(n_links), coef])
    coef.setflags(write=False)
    return coef


def _resistive_balance(cos_t, sin_t, turn_t, turn_n, spin, c_t, c_n, c_n1, c_spin) -> ConstraintSystem:
    """Balance of k contacts resisting motion along their tangents t and normals n.

    t = (cos_t, sin_t), each (..., k).  A contact moves at B0 [xi; rdot]: per
    unit body spin (column 0) and per unit rate of each shape coordinate it
    moves along t at turn_t and along n at turn_n, both (..., k, 1 + d), and
    spins at spin (k, 1 + d).  With rows u = t^T B0, v = n^T B0 and e = [0, 0,
    spin] it resists with c_t u^T u + c_n v^T v + c_n1 (v^T e + e^T v) +
    c_spin e^T e, each coefficient (k,).  Over all contacts that is one product, [c_t u; c_n v +
    c_n1 e; c_n1 v + c_spin e] in twist columns times [u; v; e]; the balance
    m @ xi + n @ rdot = 0 is minus its (..., 3, 3) and (..., 3, d) blocks.
    """
    lead, cols = cos_t.shape[:-1], 2 + spin.shape[1]
    right = np.zeros(cos_t.shape + (3, cols))
    right[..., 0, 0], right[..., 0, 1], right[..., 1, 0], right[..., 1, 1] = cos_t, sin_t, -sin_t, cos_t
    right[..., 0, 2:], right[..., 1, 2:], right[..., 2, 2:] = turn_t, turn_n, spin
    offset = np.zeros((len(spin), 3, 3))
    offset[:, 1, 2], offset[:, 2, 2] = c_n1, c_spin
    left = right[..., (0, 1, 1), :3] * np.stack([c_t, c_n, c_n1], axis=1)[:, :, None] + offset
    blocks = np.swapaxes(left.reshape(lead + (-1, 3)), -1, -2) @ right.reshape(lead + (-1, cols))
    return ConstraintSystem(-blocks[..., :3], -blocks[..., 3:])


def _viscous_balance(chain: ChainModel, r, c_t: float, c_n: float, nodes_fn) -> ConstraintSystem:
    """Anisotropic viscous drag along the chain, one _resistive_balance contact per link.

    nodes_fn(lengths) yields per-link stations s and weights w, both
    (n_links, q), s measured from each link midpoint.  A station moves at
    B(s) = B0 + s n e^T, B0 moving the midpoint and e = [0, 0, turn signs],
    and resists with D = c_t t t^T + c_n n n^T per unit weight; as D n = c_n n,

        sum w B^T D B = m0 B0^T D B0 + c_n m1 (B0^T n e^T + e n^T B0) + c_n m2 e e^T

    with moments m0 = sum w, m1 = sum w s, m2 = sum w s^2: a contact at the
    midpoint with coefficients c_t m0, c_n m0, c_n m1 and c_n m2, as a foot of
    build_slip_constraints is.  Shapes (..., d) give (..., 3, 3) and (..., 3, d).
    """
    x, y, th = _link_frames(chain, r)
    cos_th, sin_th, signs = np.cos(th), np.sin(th), _swing_signs(chain.n_links).T
    # pivots: the origin for body spin, and the +x tip of link k for joint k
    origin, half = np.zeros(x.shape[:-1] + (1,)), 0.5 * chain.lengths[:-1]
    px = x[..., :, None] - np.concatenate([origin, x[..., :-1] + half * cos_th[..., :-1]], axis=-1)[..., None, :]
    py = y[..., :, None] - np.concatenate([origin, y[..., :-1] + half * sin_th[..., :-1]], axis=-1)[..., None, :]
    # turning about a pivot moves the midpoint along (-py, px)
    turn_t = signs * (px * sin_th[..., None] - py * cos_th[..., None])
    turn_n = signs * (px * cos_th[..., None] + py * sin_th[..., None])
    s, w = nodes_fn(chain.lengths)
    m0, m1, m2 = w.sum(axis=1), (w * s).sum(axis=1), (w * s * s).sum(axis=1)
    return _resistive_balance(cos_th, sin_th, turn_t, turn_n, signs, c_t * m0, c_n * m0, c_n * m1, c_n * m2)


class DragModel(FrozenRecord):
    """Chain swimming against per-unit-length anisotropic viscous drag."""

    def __init__(self, chain: ChainModel, drag_tangential: float, drag_normal: float, quadrature: int = 8) -> None:
        if not (drag_tangential > 0.0 and drag_normal > 0.0):
            raise ValueError("drag coefficients must be positive")
        if quadrature < 2:
            raise ValueError(f"need at least 2 quadrature points per link, got {quadrature}")
        self.__dict__.update(chain=chain, drag_tangential=drag_tangential, drag_normal=drag_normal,
                             quadrature=quadrature)

    @property
    def shape_dim(self) -> int:
        return self.chain.shape_dim

    def provider(self) -> ConstraintConnection:
        return ConstraintConnection(lambda r: build_drag_constraints(self, r), self.shape_dim)


def build_drag_constraints(model: DragModel, r) -> ConstraintSystem:
    """Gauss-Legendre quadrature of the drag balance over every link."""
    nodes, weights = _gauss_legendre(model.quadrature)

    def gauss(lengths):
        half = 0.5 * lengths[:, None]
        return half * nodes[None, :], half * weights[None, :]

    return _viscous_balance(model.chain, r, model.drag_tangential, model.drag_normal, gauss)


def many_legged_drag_surrogate(model: DragModel, m: int, r) -> ConstraintSystem:
    """Balance for m evenly spaced slipping point contacts per link.

    Each contact resists with the drag coefficients scaled by 1/m (tangential
    and normal only, no yaw resistance), which is the composite midpoint rule
    for the drag integral; the result converges to build_drag_constraints as
    m grows.
    """
    if m < 2:
        raise ValueError(f"need at least 2 contacts per link, got {m}")

    def midpoint(lengths):
        step = (lengths / m)[:, None]
        stations = -0.5 * lengths[:, None] + (np.arange(m) + 0.5) * step
        return stations, np.broadcast_to(step, stations.shape)

    return _viscous_balance(model.chain, r, model.drag_tangential, model.drag_normal, midpoint)


class LeggedModel(FrozenRecord):
    """Rigid body with hip-mounted swinging legs; shape = leg angles.

    Planted feet are flat and bear yaw moment.  The selector names which feet
    are planted as a function of shape: "argmax" plants the single foot with
    the largest leg angle (ties to the lower index), "fixed" always plants
    fixed_contacts.
    """

    def __init__(self, hips: np.ndarray, leg_lengths: np.ndarray, rest_angles: np.ndarray, selector: str = "argmax",
                 fixed_contacts: frozenset | None = None) -> None:
        hips = _readonly(np.atleast_2d(hips))
        f = hips.shape[0]
        if hips.shape != (f, 2):
            raise ValueError(f"hip offsets must be (f, 2), got {hips.shape}")
        lengths = _readonly(np.atleast_1d(leg_lengths), (f,))
        rest = _readonly(np.atleast_1d(rest_angles), (f,))
        if not np.all(lengths > 0.0):
            raise ValueError("leg lengths must be positive")
        if selector not in ("argmax", "fixed"):
            raise ValueError(f"unknown selector {selector!r}")
        if selector == "fixed":
            fixed_contacts = frozenset(_stance_feet(fixed_contacts or (), f))
        self.__dict__.update(hips=hips, leg_lengths=lengths, rest_angles=rest, selector=selector,
                             fixed_contacts=fixed_contacts)

    @property
    def n_feet(self) -> int:
        return self.hips.shape[0]

    @property
    def shape_dim(self) -> int:
        return self.n_feet

    def contact_catalog(self) -> tuple[frozenset, ...]:
        if self.selector == "fixed":
            return (self.fixed_contacts,)
        return tuple(frozenset({i}) for i in range(self.n_feet))

    def contacts_many(self, shapes) -> np.ndarray:
        """contact_catalog() index of the stance set at every row of shapes (N, d) under the selector rule."""
        shapes = np.asarray(shapes, dtype=float)
        if shapes.ndim != 2 or shapes.shape[1] != self.shape_dim:
            raise ValueError(f"model expects rows of {self.shape_dim} leg angles, got {shapes.shape}")
        return np.argmax(shapes, axis=1) if self.selector == "argmax" else np.zeros(len(shapes), dtype=int)

    def stance_connection(self, c, shapes) -> np.ndarray:
        """Exact connection (..., 3, d) of stance set c at shapes (..., d), with no -0 entry.

        One planted flat foot i keeps its hip still, so column i is (-h_y,
        h_x, -1) and every other column is zero.  A pinned pair i < j keeps
        foot i still and the line d = p_j - p_i at its world angle: omega =
        -(d x d')/|d|^2 and v = -p_i' + omega (p_iy, -p_ix); both columns
        are NaN where the pins coincide.
        """
        feet = _stance_feet(c, self.n_feet)
        shapes = np.asarray(shapes, dtype=float)
        if shapes.shape[-1:] != (self.shape_dim,):
            raise ValueError(f"model expects {self.shape_dim} leg angles, got {shapes.shape}")
        out = np.zeros(shapes.shape[:-1] + (3, self.shape_dim))
        if len(feet) == 1:
            hx, hy = self.hips[feet[0]]
            out[..., :, feet[0]] = (0.0 - hy, 0.0 + hx, -1.0)
            return out
        p, d = _pin_line(self, *feet, shapes)
        # per unit r_k' foot k moves at (-ly_k, lx_k); d moves with foot j and against foot i
        ang = self.rest_angles[feet] + shapes[..., feet]
        lx, ly = self.leg_lengths[feet] * np.cos(ang), self.leg_lengths[feet] * np.sin(ang)
        omega = (d[..., :1] * lx + d[..., 1:] * ly) / (d * d).sum(axis=-1, keepdims=True) * [1.0, -1.0]
        vx, vy = omega * p[..., 1:], -(omega * p[..., :1])
        vx[..., 0] += ly[..., 0]
        vy[..., 0] -= lx[..., 0]
        out[..., :, feet] = np.stack([vx, vy, omega], axis=-2) + 0.0
        return out

    def provider(self) -> PiecewiseConnection:
        return PiecewiseConnection(self)


def foot_position(model: LeggedModel, i: int, r) -> np.ndarray:
    """Body-frame foot position of foot i at shape r (d,), or at every row of shapes (..., d) as (..., 2)."""
    ang = model.rest_angles[i] + np.asarray(r, dtype=float)[..., i]
    return model.hips[i] + model.leg_lengths[i] * np.stack([np.cos(ang), np.sin(ang)], axis=-1)


def _stance_feet(c, n_feet: int) -> list[int]:
    """The sorted feet of stance set c, which must plant one or two of feet 0..n_feet - 1."""
    feet = sorted({int(i) for i in c})
    if not 1 <= len(feet) <= 2:
        raise ValueError(f"a planar stance plants one or two feet, got {feet}")
    if not set(feet) <= set(range(n_feet)):
        raise ValueError(f"contact set {feet} outside feet 0..{n_feet - 1}")
    return feet


def _pin_line(model: LeggedModel, i: int, j: int, shapes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Foot i's position p and d = p_j - p, each (..., 2), both NaN at the rows where the pins coincide."""
    p = foot_position(model, i, shapes)
    d = foot_position(model, j, shapes) - p
    coincide = np.hypot(d[..., 0], d[..., 1]) < 1e-9 * (1.0 + float(model.leg_lengths.max()))
    p[coincide] = d[coincide] = np.nan
    return p, d


def build_contact_map(model: LeggedModel, c) -> PoseMap:
    """Pose map of the holonomic piece for stance set c.

    One planted flat foot fully determines the body pose: the map is the
    inverse of the foot pose in body coordinates.  Two planted feet act as
    pins; the body pose solves the two-point pinning in the frame anchored at
    the lower-indexed foot with x toward the other, and is NaN where the pins
    coincide.  Both maps are written in array form; the pin angle keeps
    math.atan2 per row, which np.arctan2 does not match bitwise.
    LeggedModel.stance_connection is their exact derivative.
    """
    feet = _stance_feet(c, model.n_feet)
    if len(feet) == 1:
        i = feet[0]

        def single(shapes: np.ndarray) -> np.ndarray:
            p = foot_position(model, i, shapes)
            return inverse_many((p[:, 0], p[:, 1], wrap_many(shapes[:, i])))

        return PoseMap.from_many(single, model.shape_dim)
    i, j = feet

    def pinned(shapes: np.ndarray) -> np.ndarray:
        p, d = _pin_line(model, i, j, shapes)
        beta = np.array([-math.atan2(y, x) for x, y in d.tolist()])
        cb, sb = np.cos(beta), np.sin(beta)
        px, py = p.T
        return np.stack([-(cb * px - sb * py), -(sb * px + cb * py), wrap_many(beta)])

    return PoseMap.from_many(pinned, model.shape_dim)


class SlipModel(FrozenRecord):
    """Legged geometry whose contacting feet slip against anisotropic viscous
    ground, with per-foot tangential, normal, and yaw resistance."""

    def __init__(self, geometry: LeggedModel, slip_tangential: np.ndarray, slip_normal: np.ndarray,
                 slip_yaw: np.ndarray) -> None:
        f = geometry.n_feet
        coefficients = {"slip_tangential": slip_tangential, "slip_normal": slip_normal, "slip_yaw": slip_yaw}
        for name, val in coefficients.items():
            val = _readonly(np.full(f, val, dtype=float) if np.ndim(val) == 0 else val)
            if val.shape != (f,):
                raise ValueError(f"{name} must be scalar or (f,), got {val.shape}")
            if not np.all(val > 0.0):
                raise ValueError(f"{name} must be positive")
            coefficients[name] = val
        self.__dict__.update(geometry=geometry, **coefficients)

    @property
    def shape_dim(self) -> int:
        return self.geometry.shape_dim

    def provider(self, contacts=None) -> ConstraintConnection:
        c = frozenset(range(self.geometry.n_feet)) if contacts is None else frozenset(contacts)
        return ConstraintConnection(lambda r: build_slip_constraints(self, c, r), self.shape_dim)


def build_slip_constraints(model: SlipModel, c, r) -> ConstraintSystem:
    """Balance of slipping-foot reactions for the contact set c.

    Each contacting foot resists its planar velocity anisotropically along the
    foot frame and its spin (body rate plus leg rate) with the yaw
    coefficient; swing feet contribute nothing.  A foot is a _resistive_balance
    contact, as a chain link is, with coefficients slip_tangential, slip_normal,
    0 and slip_yaw.  Shapes (..., d) give blocks (..., 3, 3) and (..., 3, d).
    """
    geo = model.geometry
    c = sorted({int(i) for i in c})
    if not c:
        raise ValueError("contact set must be nonempty")
    if not set(c) <= set(range(geo.n_feet)):
        raise ValueError(f"contact set {c} outside feet 0..{geo.n_feet - 1}")
    r = np.asarray(r, dtype=float)
    if r.shape[-1:] != (geo.shape_dim,):
        raise ValueError(f"model expects {geo.shape_dim} leg angles, got {r.shape}")
    # the foot frame turns with the leg, so in it the leg is its rest vector
    # (lx, ly) at every shape: turning about the hip moves the foot along
    # (-ly, lx), and body spin about the origin adds the hip's own turn
    tx, ty = np.cos(r[..., c]), np.sin(r[..., c])
    hx, hy = geo.hips[c].T
    lx, ly = geo.leg_lengths[c] * np.cos(geo.rest_angles[c]), geo.leg_lengths[c] * np.sin(geo.rest_angles[c])
    spin = np.hstack([np.ones((len(c), 1)), np.eye(geo.n_feet)[c]])
    body_spin = np.eye(1, 1 + geo.n_feet)[0]
    turn_t = (hx * ty - hy * tx)[..., None] * body_spin - ly[:, None] * spin
    turn_n = (hx * tx + hy * ty)[..., None] * body_spin + lx[:, None] * spin
    c_t, c_n, c_spin = model.slip_tangential[c], model.slip_normal[c], model.slip_yaw[c]
    return _resistive_balance(tx, ty, turn_t, turn_n, spin, c_t, c_n, np.zeros(len(c)), c_spin)


def three_link_swimmer(
    link_length: float = 1.0,
    drag_tangential: float = 1.0,
    drag_normal: float = 2.0,
    quadrature: int = 8,
) -> DragModel:
    """Canonical three-link swimmer with normal-heavy drag."""
    chain = ChainModel(np.full(3, link_length))
    return DragModel(chain, drag_tangential, drag_normal, quadrature)


def two_leg_crawler(hip_spacing: float = 1.0, leg_length: float = 1.0) -> LeggedModel:
    """Two downward legs on a rigid body; the foot with the larger leg angle
    is planted."""
    half = 0.5 * hip_spacing
    return LeggedModel(
        hips=np.array([[-half, 0.0], [half, 0.0]]),
        leg_lengths=np.full(2, leg_length),
        rest_angles=np.full(2, -0.5 * math.pi),
        selector="argmax",
    )


def crawler_slip_model(
    hip_spacing: float = 1.0,
    leg_length: float = 1.0,
    slip_tangential=1.0,
    slip_normal=1.0,
    slip_yaw=1.0,
) -> SlipModel:
    """Crawler geometry with both feet slipping on viscous ground."""
    return SlipModel(
        geometry=two_leg_crawler(hip_spacing, leg_length),
        slip_tangential=slip_tangential,
        slip_normal=slip_normal,
        slip_yaw=slip_yaw,
    )


def mirrored_slip_walker(
    hip_offset: float = 0.3,
    half_width: float = 0.4,
    leg_length: float = 1.0,
    slip_tangential=1.0,
    slip_normal=3.0,
    slip_yaw=0.5,
) -> SlipModel:
    """Two legs mirrored across the body axis, both slipping; legs point
    outward at rest."""
    geometry = LeggedModel(
        hips=np.array([[hip_offset, half_width], [hip_offset, -half_width]]),
        leg_lengths=np.full(2, leg_length),
        rest_angles=np.array([0.5 * math.pi, -0.5 * math.pi]),
        selector="fixed",
        fixed_contacts=frozenset({0, 1}),
    )
    return SlipModel(geometry, slip_tangential, slip_normal, slip_yaw)


def arm_com_pose_map(lengths, masses=None) -> PoseMap:
    """Base-anchored arm tracking its mass-center position and mean heading.

    Joint i adds r[i] to the heading of link i (cumulative), link i spans its
    hinge to the next; the pose is the mass-weighted midpoint position with
    the mass-weighted mean link heading.
    """
    lengths = np.asarray(lengths, dtype=float)
    if lengths.ndim != 1 or not np.all(lengths > 0.0):
        raise ValueError("lengths must be a vector of positive link lengths")
    d = lengths.shape[0]
    masses = np.ones(d) if masses is None else np.asarray(masses, dtype=float)
    if masses.shape != (d,) or not np.all(masses > 0.0):
        raise ValueError("masses must be positive, one per link")
    total = masses.sum()

    def many(shapes: np.ndarray) -> np.ndarray:
        head = np.cumsum(shapes, axis=1)
        dirs = np.stack([np.cos(head), np.sin(head)], axis=2)
        tips = np.cumsum(lengths[:, None] * dirs, axis=1)
        mids = tips - 0.5 * lengths[:, None] * dirs
        # 1-D @ stacked products are bitwise the per-shape masses @ mids and
        # masses @ head; a flat (N, d) @ (d,) product is not
        com = masses @ mids / total
        heading = (masses @ head[:, :, None])[:, 0] / total
        return np.stack([com[:, 0], com[:, 1], wrap_many(heading)])

    return PoseMap.from_many(many, d)


def rotate_translate_map() -> PoseMap:
    """Two-coordinate map: spin by the first coordinate, then slide the second
    along the rotated x axis."""

    def many(shapes: np.ndarray) -> np.ndarray:
        return compose_many((0.0, 0.0, wrap_many(shapes[:, 0])), (shapes[:, 1], 0.0, 0.0))

    return PoseMap.from_many(many, 2)


def wavy_pose_map() -> PoseMap:
    """Smooth strongly-coupled synthetic two-coordinate pose map."""

    def many(shapes: np.ndarray) -> np.ndarray:
        r0, r1 = shapes.T
        return np.stack([
            0.9 * np.sin(r0) + 0.4 * r1 * r1,
            0.7 * (np.cos(r0 * r1) - 1.0),
            wrap_many(0.8 * np.sin(r1) + 0.3 * r0),
        ])

    return PoseMap.from_many(many, 2)
