"""Points of a finite frame, the space they form, spatialization, spatiality
testing, and the sobrification map of a finite space.

A point of L is a frame homomorphism L -> 2, stored as the filter of elements
it sends to 1. A finite frame is distributive, so its points are its prime
filters, which are exactly the complements L minus the down-set of a prime
(`Frame.primes`). pt(L), spatialization and the spatiality scan share one
pass that reads sigma(a), the mask of the points whose filter holds a, for
every a. The assignment and point-call scans survive as test oracles.
"""
from __future__ import annotations

from dataclasses import dataclass

from .lattice import FiniteSpace, Frame, bits, frame_of_space
from .maps import ContinuousMap, FrameHom


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


def points_of(frame: Frame) -> list:
    """All points of the frame, sorted by filter mask: one per prime p, sending
    exactly the elements not below p to 1; one pass, so no size bound applies."""
    filters = sorted(frame.full_mask & ~frame.dn[p] for p in bits(frame.primes))
    return [Point(frame, filt) for filt in filters]


def _transpose(rows, width: int) -> list:
    """cols[a], for a < width: the mask of the indices i whose rows[i] holds a.
    Over the point filters it is sigma(a) for every element a, in one pass."""
    cols = [0] * width
    for i, row in enumerate(rows):
        for a in bits(row):
            cols[a] |= 1 << i
    return cols


def _sigma(frame: Frame) -> list:
    """sigma(a) for every element a, in one pass over the point filters."""
    return _transpose([p.filter for p in points_of(frame)], frame.n)


def sigma(frame: Frame, a: int, points=None) -> int:
    """The basic open of pt(L) at a: the mask of points sending a to 1."""
    pts = points_of(frame) if points is None else points
    return _transpose([p.filter for p in pts], frame.n)[a]


def _pt_space(frame: Frame):
    """pt(L) and the list of its opens sigma(a), indexed by the elements a."""
    sig = _sigma(frame)
    return FiniteSpace([f"p{i}" for i in range(frame.primes.bit_count())], sig), sig


def pt_space(frame: Frame) -> FiniteSpace:
    """The space of points, with opens exactly the sets sigma(a)."""
    return _pt_space(frame)[0]


def spatialization(frame: Frame) -> FrameHom:
    """The frame hom a -> sigma(a) into the open-set frame of pt(L)."""
    space, sig = _pt_space(frame)
    index = {m: i for i, m in enumerate(space.opens)}
    return FrameHom(frame, frame_of_space(space), tuple(index[s] for s in sig))


@dataclass(frozen=True)
class SpatialityReport:
    """Outcome of the pair scan: every a not<= b needs a separating point."""

    ok: bool
    checked: int
    failures: tuple = ()

    def to_json(self):
        return {"ok": self.ok, "checked": self.checked, "failures": list(self.failures)}


def is_spatial(frame: Frame) -> SpatialityReport:
    """For each pair a not<= b, in row-major order, look for a point with
    p(a)=1 and p(b)=0: a bit of sigma(a) outside sigma(b)."""
    return _spatiality(frame, _sigma(frame))


def _spatiality(frame: Frame, sig) -> SpatialityReport:
    """is_spatial's scan, on the list sig of every sigma(a)."""
    checked, failures = 0, []
    for a, sa in enumerate(sig):
        not_above = frame.full_mask & ~frame.up[a]
        checked += not_above.bit_count()
        for b in bits(not_above):
            if not sa & ~sig[b]:
                failures.append((frame.labels[a], frame.labels[b]))
    return SpatialityReport(not failures, checked, tuple(failures))


def sobrification(space: FiniteSpace) -> ContinuousMap:
    """The continuous map x -> f_x from a space into pt of its open-set frame,
    where f_x(U) = 1 iff x is in U."""
    frame = frame_of_space(space)
    index = {p.filter: i for i, p in enumerate(points_of(frame))}
    filters = _transpose(space.opens, space.n_points)
    # membership assignments always preserve the lattice structure of opens
    assert all(f in index for f in filters), "point evaluation escaped the point list"
    return ContinuousMap(space, pt_space(frame), tuple(index[f] for f in filters))
