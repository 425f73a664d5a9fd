"""Filter functions as weighted sums of structured kernel atoms.

Every atom reduces to a normal form with three ingredients on its channel:

* ``sections``: weights w_l on kernel slices R1(lag_l, .) — point evaluations
  of the smooth-part kernel;
* ``segments``: weights w_p on integrated slices int_lo^hi R1(v, .) dv, kept
  symbolically so compensator integrals and inner products stay exact;
* ``h0``: coefficients on the polynomial basis phi_1..phi_m.

Atoms tagged ``part="r"`` carry the polynomial content of the full kernel
R = R0 + R1 inside ``h0``; atoms tagged ``part="r1"`` are orthogonal to the
polynomials.  With this split the H1/H0 projection is exact (drop or keep
``h0``), and all inner products reduce to closed-form kernel evaluations:
section-section pairs hit R1 itself, anything involving a segment hits the
once- or twice-integrated kernel.

Atom operations are linear, so a whole filter has the same normal form:
``FilterFunction.normal_forms`` holds one atom per channel that merges the
sections, segments and h0 of every atom there, scaled by its coefficient;
atoms that share one sections array, as a fit's integral atoms share their
node lags, are summed on it first, so that it is sorted once.
A filter checks its atoms against its kernel's domain once, when it is
built, and its normal forms take them unchecked.  Filters are immutable
and the forms are cached.  Evaluation and the H1 seminorm each take one
prefix-sum pass per channel over them, and so do the likelihood's
predictors and exact compensator.  Atoms are values
that keep no state beyond their fields: ``Atom._bound_value`` builds the
prefix tables of an atom's value (``kernel._prefix_table``) and binds
them, with its lags and h0, to the one function that evaluates them
(``_atom_value``), with no domain check.  The one cache of tables is
``FilterFunction._readers``, each channel's normal form bound once, which
``evaluate`` and the thinning simulator read instead of summing anew.
``FilterFunction.compact`` rewrites a filter as its normal forms in at
most 1 + m serializable atoms per channel.

In a ``glppm.filter.v1`` payload each array of an atom entry
(``sections.lags/weights``, ``segments.nodes/weights``) is spelled either
as a JSON list of numbers or as a base64 string of little-endian float64
bytes.  ``to_dict`` writes the bytes, which round-trip exactly and cost a
fraction of the text conversion; the reader takes both, so hand-written
filters and files from earlier versions load as before.  Either way the
arrays must be one-dimensional, finite and paired in equal lengths.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, partial

import numpy as np

from .data import _as_float_array, _as_number
from .errors import ConfigError, DataError, DomainError
from .kernel import SobolevKernel, _cross_weighted_sum, _family_sums, _h0_stack, _prefix_table

__all__ = [
    "Atom",
    "FilterFunction",
    "full_inner_row",
    "h0_poly",
    "h1_inner_row",
    "integrated_segments",
]

_MERGE_TOL = 1e-12


def _merge(lags: np.ndarray, owner: np.ndarray | None = None):
    """(order, starts, group), the one merge rule: ``order`` sorts the lags
    stably, or by owner and then lag; a sorted lag within 1e-12 of the one
    before it joins its group, and no group spans two owners.  ``starts``
    marks each group's first lag and ``group`` numbers each sorted lag's
    group: ``lags[order][starts]`` are the merged lags, and a ``bincount``
    over ``group`` of weights taken in ``order`` sums them."""
    order = np.argsort(lags, kind="stable") if owner is None else np.lexsort((lags, owner))
    lags = lags[order]
    starts = np.ones(lags.size, dtype=bool)
    np.greater(np.diff(lags), _MERGE_TOL, out=starts[1:])
    if owner is not None:
        owner = owner[order]
        starts[1:] |= owner[1:] != owner[:-1]
    return order, starts, np.cumsum(starts) - 1


def _merge_sorted(lags: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort ascending and merge entries whose lags agree within 1e-12
    (``_merge``): the merged lags and their summed weights."""
    if lags.size == 0:
        return lags, weights
    order, starts, group = _merge(lags)
    return lags[order][starts], np.bincount(group, weights=weights[order])


def _merged_sections(atoms, c: np.ndarray):
    """``_merge_sorted`` of the sections of atoms with coefficients c.
    Atoms that share one sections array, as a fit's integral atoms do,
    enter as one copy of it that carries their weights summed in atom
    order, as the stable sort and ``bincount`` sum them; where a merge
    group (``_merge``) holds one of its lags and any other lag, every copy
    takes the sort instead."""
    groups: dict = {}
    for k, a in enumerate(atoms):
        groups.setdefault(id(a.sec_lags), []).append(k)
    shared = max(groups.values(), key=len, default=[])
    keep = [k for k in range(len(atoms)) if k not in shared[1:]]
    lags, weights, owner = _flatten([atoms[k] for k in keep])[:3]
    weights = c[keep][owner] * weights
    if len(shared) > 1:
        mine = owner == keep.index(shared[0])
        weights[mine] = sum((c[k] * atoms[k].sec_weights for k in shared), np.zeros(mine.sum()))
        order, starts, group = _merge(lags)
        mark = mine[order]
        if not (~starts[1:] & (mark[1:] | mark[:-1])).any():
            return lags[order][starts], np.bincount(group, weights=weights[order])
        lags, weights, owner = _flatten(atoms)[:3]
        weights = c[owner] * weights
    return _merge_sorted(lags, weights)


def _to_b64(arr: np.ndarray) -> str:
    """``arr`` as base64 of its little-endian float64 bytes."""
    return base64.b64encode(np.asarray(arr, "<f8").tobytes()).decode("ascii")


def _read_array(raw, what: str) -> np.ndarray:
    """An atom array from its list or base64 ``<f8`` spelling: read-only,
    one-dimensional and finite, or DataError."""
    if isinstance(raw, str):
        try:
            raw = np.frombuffer(base64.b64decode(raw, validate=True), "<f8")
        except ValueError as exc:  # binascii.Error is a ValueError
            raise DataError(f"{what} is not base64 of float64 bytes: {exc}") from None
    return _as_float_array(raw, what)


def _read_pair(raw, first: str) -> tuple[np.ndarray, np.ndarray]:
    """The (``first``, weights) arrays of a sections or segments entry."""
    a = _read_array(raw[first], f"atom {first}")
    w = _read_array(raw["weights"], "atom weights")
    if a.size != w.size:
        raise DataError(f"atom {first} and weights differ in length: {a.size} and {w.size}")
    return a, w


def _ro(arr) -> np.ndarray:
    out = np.asarray(arr, dtype=float)
    out.setflags(write=False)
    return out


# the segments of an atom that has none, shared by every such atom that
# ``_merged_atom`` builds
_NO_SEGMENTS = _ro(np.empty(0))


@lru_cache(maxsize=None)
def _zero_h0(m: int) -> np.ndarray:
    """The read-only zero polynomial coefficients of order m, shared by
    every atom without polynomial content."""
    return _ro(np.zeros(m))


@dataclass(frozen=True, eq=False)
class Atom:
    """One basis element of a filter function.  Use the constructors below."""

    channel: int
    kind: str  # "h0" | "section" | "integrated" | "normal"
    part: str  # "h0" | "r1" | "r"
    m: int
    sec_lags: np.ndarray
    sec_weights: np.ndarray
    seg_nodes: np.ndarray  # sorted segment endpoints
    seg_weights: np.ndarray  # signed: +w at hi, -w at lo
    h0: np.ndarray
    k: int | None = None  # 1-based polynomial index for kind "h0"

    @property
    def is_zero(self) -> bool:
        """True when the atom is the zero function: no section, segment or
        polynomial weight is nonzero."""
        count = np.count_nonzero
        return not (count(self.sec_weights) or count(self.seg_weights) or count(self.h0))

    def _bound_value(self):
        """The atom's value on lag arrays as one function of the lags
        alone, with no domain check, for a caller whose lags lie in
        [0, horizon] by construction: the prefix tables of K[m,m] over the
        sections and of K[m+1,m] over any segments, bound to
        ``_atom_value``."""
        m = self.m
        sec_table = _prefix_table(m, m, self.sec_lags, self.sec_weights)
        seg_table = _prefix_table(m + 1, m, self.seg_nodes, self.seg_weights) if self.seg_nodes.size else None
        return partial(_atom_value, self.sec_lags, sec_table, self.seg_nodes, seg_table, self.h0)

    def sections_h0(self, kernel: SobolevKernel) -> np.ndarray:
        """Polynomial content the sections/segments would carry under the
        full kernel R: sum_l w_l phi_k(lag_l) + segment running integrals."""
        out = np.zeros(self.m)
        if self.sec_lags.size:
            out += kernel.h0_basis(self.sec_lags) @ self.sec_weights
        if self.seg_nodes.size:
            out += kernel.h0_antiderivative(self.seg_nodes) @ self.seg_weights
        return out

    def projected(self) -> "Atom":
        """Image under the projection onto H1 (drop polynomial content)."""
        part = "r1" if self.part != "h0" else "h0"
        return replace(self, part=part, h0=_zero_h0(self.m))

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """The ``glppm.filter.v1`` entry of this atom, which ``from_dict``
        reads back as the same function.  Its arrays are base64 strings of
        little-endian float64 bytes; the reader also takes JSON lists.  The
        entry has no ``h0`` field, as the reader derives ``h0`` from the
        part.  A merged normal form (kind "normal", part "r") carries its
        own ``h0``, so it has no entry and raises ConfigError;
        ``FilterFunction.compact`` splits it into atoms that have one."""
        if self.kind == "normal" and self.part == "r":
            raise ConfigError(
                "a merged normal form carries its own h0, which a glppm.filter.v1 "
                "entry cannot hold; serialize FilterFunction.compact() instead"
            )
        out: dict = {"channel": self.channel, "kind": self.kind, "part": self.part}
        if self.kind == "h0":
            out["k"] = self.k
            return out
        if self.sec_lags.size:
            out["sections"] = {
                "lags": _to_b64(self.sec_lags),
                "weights": _to_b64(self.sec_weights),
            }
        if self.seg_nodes.size:
            out["segments"] = {
                "nodes": _to_b64(self.seg_nodes),
                "weights": _to_b64(self.seg_weights),
            }
        return out

    @staticmethod
    def from_dict(kernel: SobolevKernel, d: dict) -> "Atom":
        kind = d["kind"]
        channel = _as_number(d["channel"], "atom channel", DataError, integer=True)
        if kind == "h0":
            return h0_poly(kernel, channel, _as_number(d["k"], "atom k", DataError, integer=True))
        if kind not in ("section", "integrated", "normal"):
            raise DataError(f"atom kind must be 'h0', 'section', 'integrated' or 'normal', got {kind!r}")
        sec = d.get("sections", {"lags": [], "weights": []})
        seg = d.get("segments", {"nodes": [], "weights": []})
        return _normal_form_atom(
            kernel, channel, kind, d["part"], *_read_pair(sec, "lags"), *_read_pair(seg, "nodes")
        )


def _atom_value(sec_lags, sec_table, seg_nodes, seg_table, h0, u: np.ndarray) -> np.ndarray:
    """Value at an array of lags u of the atom with these sections,
    segments and polynomial coefficients h0, unchecked: K[m,m] over the
    sections and, unless ``seg_table`` is None, K[m+1,m] over the segments,
    each from its prefix table (``kernel._family_sums``, with the bits of
    ``_cross_weighted_sum``), plus the polynomial part.  That part is the
    ``np.dot`` that ``np.tensordot(h0, kernel.h0_basis(u), axes=(0, 0))``
    makes; at m = 1 that product is h0[0] * phi_1 with phi_1 = 1, which is
    h0[0] exactly, so it is added as such."""
    out = _family_sums(sec_table, sec_lags.searchsorted(u, side="right"), u)
    if seg_table is not None:
        out = out + _family_sums(seg_table, seg_nodes.searchsorted(u, side="right"), u)
    m = h0.size
    if m == 1:
        return out + h0[0] if h0[0] else out
    if not h0.any():
        return out
    basis = _h0_stack(u, m).reshape(m, u.size)
    return out + np.dot(h0.reshape(1, m), basis).reshape(u.shape)


def _normal_form_atom(kernel, channel, kind, part, sec_lags, sec_weights, seg_nodes, seg_weights) -> Atom:
    """The atom of these sections and segments, sorted and merged.  A lag or
    node outside the kernel's domain or not finite raises DomainError, and a
    weight that is not finite ConfigError, before the merge: it would fold
    a NaN into the group of the entry before it."""
    kernel._check_domain(sec_lags, seg_nodes)
    if not (np.isfinite(sec_lags).all() and np.isfinite(seg_nodes).all()):
        raise DomainError("atom lags and segment nodes must be finite")
    if not (np.isfinite(sec_weights).all() and np.isfinite(seg_weights).all()):
        raise ConfigError("atom weights must be finite")
    arrays = (*_merge_sorted(sec_lags, sec_weights), *_merge_sorted(seg_nodes, seg_weights))
    return _merged_atom(kernel, channel, kind, part, *map(_ro, arrays))


def _merged_atom(
    kernel, channel, kind, part, sec_lags, sec_weights, seg_nodes=_NO_SEGMENTS, seg_weights=_NO_SEGMENTS
) -> Atom:
    """The atom of read-only float arrays of sections and segments already
    sorted, merged and inside the kernel's domain, taken as they are; an
    atom with no segments shares ``_NO_SEGMENTS``.  Part "r1" gives it the
    shared zero ``h0``, part "r" the polynomial content of its sections and
    segments."""
    if part not in ("r1", "r"):
        raise ConfigError(f"atom part must be 'r1' or 'r', got {part!r}")
    atom = Atom(
        channel=int(channel),
        kind=kind,
        part=part,
        m=kernel.m,
        sec_lags=sec_lags,
        sec_weights=sec_weights,
        seg_nodes=seg_nodes,
        seg_weights=seg_weights,
        h0=_zero_h0(kernel.m),
    )
    if part == "r":
        object.__setattr__(atom, "h0", _ro(atom.sections_h0(kernel)))
    return atom


# -- constructors -------------------------------------------------------------


def h0_poly(kernel: SobolevKernel, channel: int, k: int) -> Atom:
    """Polynomial basis atom phi_k(u) = u^(k-1)/(k-1)!."""
    if not 1 <= k <= kernel.m:
        raise ConfigError(f"h0 index k must be in 1..{kernel.m}, got {k}")
    h0 = np.zeros(kernel.m)
    h0[k - 1] = 1.0
    return Atom(
        channel=int(channel),
        kind="h0",
        part="h0",
        m=kernel.m,
        sec_lags=_ro(np.empty(0)),
        sec_weights=_ro(np.empty(0)),
        seg_nodes=_ro(np.empty(0)),
        seg_weights=_ro(np.empty(0)),
        h0=_ro(h0),
        k=k,
    )


def integrated_segments(kernel: SobolevKernel, channel: int, lo, hi, weights) -> Atom:
    """Exact time-integrated kernel slices sum_p w_p int_lo^hi R1(v, .) dv."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if not (lo.shape == hi.shape == weights.shape):
        raise ConfigError("segment lo/hi/weights must have matching shapes")
    if lo.size and np.any(hi < lo):
        raise ConfigError("segment upper bounds must be >= lower bounds")
    nodes = np.concatenate([hi, lo])
    signed = np.concatenate([weights, -weights])
    return _normal_form_atom(
        kernel, channel, "integrated", "r1", np.empty(0), np.empty(0), nodes, signed
    )


# -- filter functions ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FilterFunction:
    """Finite combination g = sum_a c_a atom_a, channels side by side."""

    kernel: SobolevKernel
    n_channels: int
    atoms: tuple[Atom, ...]
    coefficients: np.ndarray

    def __post_init__(self):
        atoms = tuple(self.atoms)
        coeffs = _ro(np.asarray(self.coefficients, dtype=float))
        if coeffs.ndim != 1 or coeffs.size != len(atoms):
            raise ConfigError("need one coefficient per atom")
        if coeffs.size and not np.isfinite(coeffs).all():
            raise ConfigError("coefficients must be finite")
        if self.n_channels < 1:
            raise ConfigError("n_channels must be >= 1")
        horizon = self.kernel.horizon
        for a in atoms:
            if a.m != self.kernel.m:
                raise ConfigError("atom order does not match the kernel")
            if not 0 <= a.channel < self.n_channels:
                raise ConfigError(f"atom channel {a.channel} outside 0..{self.n_channels - 1}")
            # sorted and nonnegative by construction, the last lag and node
            # decide; one past the horizon or NaN takes the kernel's check
            lags, nodes = a.sec_lags, a.seg_nodes
            if (lags.size and not lags[-1] <= horizon) or (nodes.size and not nodes[-1] <= horizon):
                self.kernel._check_domain(lags, nodes)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "coefficients", coeffs)

    # -- normal form ---------------------------------------------------------

    @cached_property
    def normal_forms(self) -> tuple[Atom, ...]:
        """One atom per channel equal to the whole filter there: the sections
        and segments of its atoms, weighted by their coefficients, sorted and
        merged (``_merged_sections``), and ``h0`` the combined polynomial
        coefficients, with no domain check: the filter checked its atoms
        when it was built.  A channel whose one atom with sections or
        segments has coefficient 1, as every filter that ``compact`` writes
        and ``from_dict`` reads back, takes that atom's arrays as they are:
        every atom's are sorted, merged and nonnegative by construction,
        with weights that a ``bincount`` summed, so the flatten and merge
        would give them back bit for bit."""
        forms = []
        for ch in range(self.n_channels):
            on = [i for i, a in enumerate(self.atoms) if a.channel == ch and self.coefficients[i] != 0.0]
            c = self.coefficients[on]
            atoms = [self.atoms[i] for i in on]
            h0 = _ro(c @ np.array([a.h0 for a in atoms]).reshape(-1, self.kernel.m))
            smooth = [k for k, a in enumerate(atoms) if a.sec_lags.size or a.seg_nodes.size]
            if len(smooth) == 1 and c[smooth[0]] == 1.0:
                forms.append(replace(atoms[smooth[0]], channel=ch, kind="normal", part="r", h0=h0))
                continue
            seg_nodes, seg_w, seg_owner = _flatten(atoms)[3:]
            # an r1 atom of the merged support, then given the combined h0
            sections = _merged_sections(atoms, c)
            segments = _merge_sorted(seg_nodes, c[seg_owner] * seg_w)
            form = _merged_atom(self.kernel, ch, "normal", "r1", *map(_ro, sections + segments))
            forms.append(replace(form, part="r", h0=h0))
        return tuple(forms)

    @cached_property
    def _readers(self) -> tuple:
        """Each channel's normal form bound once (``Atom._bound_value``): a
        function of a lag array in [0, horizon], unchecked.  The one cache
        of prefix tables: ``evaluate`` and the thinning simulator read them."""
        return tuple(f._bound_value() for f in self.normal_forms)

    def evaluate(self, channel: int, u):
        """g_channel(u) for scalar or array lags u in [0, horizon]."""
        if not 0 <= channel < self.n_channels:
            raise DomainError(f"unknown channel {channel}")
        self.kernel._check_domain(u)
        out = self._readers[channel](np.asarray(u, dtype=float))
        return float(out) if np.ndim(out) == 0 else out

    # -- geometry ---------------------------------------------------------------

    def compact(self) -> "FilterFunction":
        """The same function in at most 1 + m atoms per channel: the H1 part
        of each normal form with coefficient 1, then one ``h0`` atom per
        nonzero polynomial coefficient.  Its normal forms equal this
        filter's bit for bit, so it evaluates, predicts and integrates the
        same, and it serializes where the normal forms themselves cannot."""
        atoms, coeffs = [], []
        for f in self.normal_forms:
            if f.sec_lags.size or f.seg_nodes.size:
                atoms.append(f.projected())
                coeffs.append(1.0)
            for k in np.flatnonzero(f.h0):
                atoms.append(h0_poly(self.kernel, f.channel, int(k) + 1))
                coeffs.append(float(f.h0[k]))
        return FilterFunction(self.kernel, self.n_channels, tuple(atoms), np.array(coeffs))

    def h1_seminorm_sq(self) -> float:
        """||P g||^2 = sum over channels of the H1 norm of the smooth part."""
        return sum(float(h1_inner_row(f, [f])[0]) for f in self.normal_forms)

    # -- serialization ----------------------------------------------------------

    def to_dict(self) -> dict:
        """The ``glppm.filter.v1`` payload."""
        return {
            "format": "glppm.filter.v1",
            "kernel": {"m": self.kernel.m, "horizon": self.kernel.horizon},
            "n_channels": self.n_channels,
            "atoms": [
                dict(atom.to_dict(), coefficient=float(c))
                for atom, c in zip(self.atoms, self.coefficients)
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @staticmethod
    def from_dict(payload) -> "FilterFunction":
        """Inverse of ``to_dict``; extra keys are ignored, and a missing,
        mistyped or out-of-range field raises DataError."""
        fmt = payload.get("format") if isinstance(payload, dict) else None
        if fmt != "glppm.filter.v1":
            raise DataError(f"unrecognized filter format {fmt!r}")
        try:
            kernel = SobolevKernel(
                _as_number(payload["kernel"]["m"], "filter kernel m", DataError, integer=True),
                _as_number(payload["kernel"]["horizon"], "filter kernel horizon", DataError),
            )
            n_channels = _as_number(
                payload["n_channels"], "filter n_channels", DataError, integer=True
            )
            atoms = []
            coeffs = []
            for entry in payload["atoms"]:
                atoms.append(Atom.from_dict(kernel, entry))
                coeffs.append(_as_number(entry["coefficient"], "atom coefficient", DataError))
            return FilterFunction(kernel, n_channels, tuple(atoms), np.array(coeffs))
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"malformed filter payload: {exc!r}") from None
        except ConfigError as exc:
            raise DataError(f"invalid filter payload: {exc}") from None

    @staticmethod
    def from_json(text: str) -> "FilterFunction":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataError(f"bad filter JSON: {exc}") from exc
        return FilterFunction.from_dict(payload)


# -- inner products over atom lists --------------------------------------------


def _flatten(atoms) -> tuple[np.ndarray, ...]:
    """Sections and segments of ``atoms`` laid end to end, each entry tagged
    with the index of its atom: (sec_lags, sec_w, sec_owner, seg_nodes,
    seg_w, seg_owner)."""
    empty = [np.empty(0)]
    idx = np.arange(len(atoms))
    return (
        np.concatenate(empty + [a.sec_lags for a in atoms]),
        np.concatenate(empty + [a.sec_weights for a in atoms]),
        np.repeat(idx, [a.sec_lags.size for a in atoms]),
        np.concatenate(empty + [a.seg_nodes for a in atoms]),
        np.concatenate(empty + [a.seg_weights for a in atoms]),
        np.repeat(idx, [a.seg_nodes.size for a in atoms]),
    )


def h1_inner_row(atom: Atom, atoms) -> np.ndarray:
    """<P atom, P b> for every b in atoms: the support of the atoms on
    atom's channel is flattened once, so the row is one prefix-sum pass
    instead of a pairwise loop.  The one home of the H1 pairing: atom's
    smooth part is K[m,q] over its sections plus K[m+1,q] over its
    segments, read with q = m (its value) at the other atoms' section lags
    and with q = m + 1 (its integral from 0) at their segment nodes."""
    atoms = list(atoms)
    idxs = [i for i, b in enumerate(atoms) if b.channel == atom.channel]
    sec_lags, sec_w, sec_owner, seg_nodes, seg_w, seg_owner = _flatten([atoms[i] for i in idxs])
    m = atom.m

    def smooth(q: int, x: np.ndarray) -> np.ndarray:
        out = _cross_weighted_sum(m, q, atom.sec_lags, atom.sec_weights, x)
        if atom.seg_nodes.size:
            out = out + _cross_weighted_sum(m + 1, q, atom.seg_nodes, atom.seg_weights, x)
        return out

    row = np.zeros(len(idxs))
    if sec_lags.size:
        row += np.bincount(sec_owner, weights=sec_w * smooth(m, sec_lags), minlength=len(idxs))
    if seg_nodes.size:
        row += np.bincount(seg_owner, weights=seg_w * smooth(m + 1, seg_nodes), minlength=len(idxs))
    out = np.zeros(len(atoms))
    out[idxs] = row
    return out


def full_inner_row(atom: Atom, atoms) -> np.ndarray:
    """Full Sobolev inner products of one atom against a list of atoms."""
    atoms = list(atoms)
    out = h1_inner_row(atom, atoms)
    if atoms and np.any(atom.h0):
        same = np.array([b.channel == atom.channel for b in atoms])
        out += same * (np.stack([b.h0 for b in atoms]) @ atom.h0)
    return out
