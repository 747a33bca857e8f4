"""Points of a finite frame, the space they form, spatialization, spatiality
testing, and the sobrification map of a finite space.

A point of L is a frame homomorphism L -> 2, stored as the filter of elements
it sends to 1. A finite frame is distributive, so its points are its prime
filters, which are exactly the complements L minus the down-set of a prime
(`Frame.primes`). The two-valued assignment scan survives as a test oracle.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import SizeLimit
from .lattice import FiniteSpace, Frame, bits, frame_of_space
from .maps import ContinuousMap, FrameHom
from .sublocales import size_limit

POINT_SIZE_LIMIT = 16


@dataclass(frozen=True)
class Point:
    """A frame map host -> 2, as the bitmask of elements sent to 1."""

    host: Frame
    filter: int

    def __call__(self, a: int) -> int:
        return self.filter >> a & 1

    @property
    def table(self):
        # indices into the two-element frame: bottom 0, top 1
        return tuple(self.filter >> a & 1 for a in range(self.host.n))

    def describe(self) -> dict:
        return {self.host.labels[a]: self.filter >> a & 1 for a in range(self.host.n)}


def points_of(frame: Frame, limit=None) -> list:
    """All points of the frame, sorted by filter mask: one per prime p, sending
    exactly the elements not below p to 1."""
    bound = limit if limit is not None else size_limit(POINT_SIZE_LIMIT)
    if frame.n > bound:
        raise SizeLimit(
            f"|L| = {frame.n} exceeds the point enumeration bound {bound}",
            witness=(frame.n, bound),
        )
    filters = sorted(frame.full_mask & ~frame.dn[p] for p in bits(frame.primes))
    return [Point(frame, filt) for filt in filters]


def sigma(frame: Frame, a: int, points=None) -> int:
    """The basic open of pt(L) at a: the mask of points sending a to 1."""
    pts = points_of(frame) if points is None else points
    mask = 0
    for i, p in enumerate(pts):
        if p(a):
            mask |= 1 << i
    return mask


def pt_space(frame: Frame) -> FiniteSpace:
    """The space of points, with opens exactly the sets sigma(a)."""
    pts = points_of(frame)
    labels = [f"p{i}" for i in range(len(pts))]
    opens = {sigma(frame, a, pts) for a in range(frame.n)}
    return FiniteSpace(labels, opens)


def spatialization(frame: Frame) -> FrameHom:
    """The frame hom a -> sigma(a) into the open-set frame of pt(L)."""
    space = pt_space(frame)
    target = frame_of_space(space)
    index = {m: i for i, m in enumerate(space.opens)}
    pts = points_of(frame)
    table = tuple(index[sigma(frame, a, pts)] for a in range(frame.n))
    return FrameHom(frame, target, table)


@dataclass(frozen=True)
class SpatialityReport:
    """Outcome of the pair scan: every a not<= b needs a separating point."""

    ok: bool
    checked: int
    failures: tuple = ()

    def to_json(self):
        return {"ok": self.ok, "checked": self.checked, "failures": list(self.failures)}


def is_spatial(frame: Frame) -> SpatialityReport:
    """For each pair a not<= b, look for a point with p(a)=1 and p(b)=0."""
    pts = points_of(frame)
    checked = 0
    failures = []
    for a in range(frame.n):
        for b in range(frame.n):
            if frame.le(a, b):
                continue
            checked += 1
            if not any(p(a) and not p(b) for p in pts):
                failures.append((frame.labels[a], frame.labels[b]))
    return SpatialityReport(not failures, checked, tuple(failures))


def sobrification(space: FiniteSpace) -> ContinuousMap:
    """The continuous map x -> f_x from a space into pt of its open-set frame,
    where f_x(U) = 1 iff x is in U."""
    frame = frame_of_space(space)
    pts = points_of(frame)
    index = {p.filter: i for i, p in enumerate(pts)}
    table = []
    for x in range(space.n_points):
        filt = 0
        for i, mask in enumerate(space.opens):
            if mask >> x & 1:
                filt |= 1 << i
        # membership assignments always preserve the lattice structure of opens
        assert filt in index, "point evaluation escaped the point list"
        table.append(index[filt])
    return ContinuousMap(space, pt_space(frame), tuple(table))
