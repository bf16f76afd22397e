"""Chord-offset patterns for trivalent Hamiltonian bipartite graphs.

A graph in this family has order 2m and a Hamiltonian cycle along which the
vertices are labelled.  Each vertex carries exactly one non-cycle edge (a
chord), and the chord offsets repeat with period 2b around the cycle, where
b divides m.  A pattern is therefore a sequence of 2b offsets: position j
holds the chord offset of every vertex i with i = j (mod 2b).

Internally everything is 0-based (vertices 0..2m-1, positions 0..2b-1);
file formats and user-facing output use 1-based vertex labels.  Offsets are
stored as least positive residues in the open interval (0, 2m).
"""

from __future__ import annotations

from dataclasses import dataclass


class PatternError(ValueError):
    """Base class for offset-pattern validation failures."""


class RangeError(PatternError):
    """m or b outside the supported range (m >= 3, b >= 1)."""


class DivisibilityError(PatternError):
    """The symmetry factor b does not divide m."""


class LengthError(PatternError):
    """The offset sequence does not have exactly 2b entries."""


class ParityError(PatternError):
    """An even offset; chords must join the two parity classes."""


class DegenerateChordError(PatternError):
    """An offset of 0, 1 or 2m-1; the chord would be a loop or duplicate a cycle edge."""


class MatchingError(PatternError):
    """The chords do not pair up into a perfect matching."""


@dataclass(frozen=True)
class OffsetPattern:
    """A validated chord-offset pattern of order 2m with period 2b.

    Instances are immutable and should be built through validate_pattern(),
    which is the only constructor that establishes the invariants (parity,
    non-degeneracy and involution closure of the offsets).
    """

    m: int
    b: int
    offsets: tuple[int, ...]

    @property
    def order(self) -> int:
        return 2 * self.m

    @property
    def positions(self) -> int:
        return 2 * self.b


@dataclass(frozen=True)
class ExpandedGraph:
    """Explicit adjacency of an expanded pattern.

    adjacency[i] lists the three neighbours of vertex i in the fixed order
    (previous cycle vertex, next cycle vertex, chord endpoint), 0-based.
    """

    order: int
    adjacency: tuple[tuple[int, int, int], ...]


def involution_partner(position: int, offset: int, positions: int) -> int:
    """Position whose offset is forced to the negation of the given one."""
    return (position + offset) % positions


def validate_pattern(m: int, b: int, offsets) -> OffsetPattern:
    """Normalize and validate an offset sequence into an OffsetPattern.

    Offsets may be given as arbitrary integers; they are reduced mod 2m into
    (0, 2m).  Raises a PatternError subclass describing the first violated
    constraint; positions in messages are 1-based.
    """
    if m < 3:
        raise RangeError(f"m={m}: no simple trivalent graph below order 6")
    if b < 1:
        raise RangeError(f"b={b}: symmetry factor must be a positive integer")
    if m % b != 0:
        raise DivisibilityError(f"b={b} does not divide m={m}")
    n = 2 * m
    b2 = 2 * b
    seq = [int(x) for x in offsets]
    if len(seq) != b2:
        raise LengthError(f"expected {b2} offsets (2b), got {len(seq)}")
    norm: list[int] = []
    for j, raw in enumerate(seq):
        d = raw % n
        if d == 0:
            raise DegenerateChordError(f"position {j + 1}: offset {raw} is 0 mod {n} (loop)")
        if d % 2 == 0:
            raise ParityError(f"position {j + 1}: offset {raw} is even; chords must switch parity")
        if d == 1 or d == n - 1:
            raise DegenerateChordError(
                f"position {j + 1}: offset {raw} duplicates a Hamiltonian cycle edge"
            )
        norm.append(d)
    for j, d in enumerate(norm):
        t = involution_partner(j, d, b2)
        if norm[t] != n - d:
            raise MatchingError(
                f"positions {j + 1} and {t + 1}: offset {norm[t]} is not the negation "
                f"of {d} mod {n}; chords do not form a perfect matching"
            )
    return OffsetPattern(m=m, b=b, offsets=tuple(norm))


def expand(pattern: OffsetPattern) -> ExpandedGraph:
    """Materialize the 2m-vertex graph described by a pattern."""
    n = pattern.order
    b2 = pattern.positions
    offs = pattern.offsets
    adj = tuple(
        ((i - 1) % n, (i + 1) % n, (i + offs[i % b2]) % n)
        for i in range(n)
    )
    return ExpandedGraph(order=n, adjacency=adj)


def expansion_defects(graph: ExpandedGraph) -> list[str]:
    """Check an expanded graph against its structural invariants.

    Returns a list of human-readable defects; empty means the graph is
    3-regular, simple, bipartite by label parity and contains the labelled
    Hamiltonian cycle.
    """
    defects: list[str] = []
    n = graph.order
    adj = graph.adjacency
    if n < 6 or n % 2 != 0:
        defects.append(f"order {n} is not an even integer >= 6")
        return defects
    if len(adj) != n:
        defects.append(f"adjacency has {len(adj)} rows for order {n}")
        return defects
    edges: dict[tuple[int, int], int] = {}
    for i, nbrs in enumerate(adj):
        if len(nbrs) != 3:
            defects.append(f"vertex {i + 1} has degree {len(nbrs)}")
            continue
        if len(set(nbrs)) != 3:
            defects.append(f"vertex {i + 1} has a repeated neighbour (parallel edge)")
        for v in nbrs:
            if v == i:
                defects.append(f"vertex {i + 1} has a loop")
            key = (min(i, v), max(i, v))
            edges[key] = edges.get(key, 0) + 1
    for (u, v), count in edges.items():
        if count != 2:
            defects.append(f"edge {u + 1}-{v + 1} seen from {count} endpoint(s), expected 2")
        if (u - v) % 2 == 0:
            defects.append(f"edge {u + 1}-{v + 1} joins two same-parity vertices")
    for i in range(n):
        j = (i + 1) % n
        if j not in adj[i]:
            defects.append(f"Hamiltonian cycle edge {i + 1}-{j + 1} missing")
    if not defects and len(edges) != 3 * n // 2:
        defects.append(f"{len(edges)} edges, expected {3 * n // 2}")
    return defects


def _divisors(k: int) -> list[int]:
    out = [d for d in range(1, k + 1) if k % d == 0]
    return out


def minimal_position_period(offsets) -> int:
    """Smallest p dividing the sequence length with offsets[j] == offsets[j+p]."""
    b2 = len(offsets)
    for p in _divisors(b2):
        if all(offsets[j] == offsets[(j + p) % b2] for j in range(b2)):
            return p
    return b2


def derived_symmetry_factors(pattern: OffsetPattern) -> set[int]:
    """All b' dividing m for which the pattern repeats with period 2b'.

    The extension of the offsets to the full cycle has a minimal period p
    (a divisor of 2b); a divisor b' of m qualifies exactly when p divides
    2b'.  The result always contains m, always contains the recorded b, and
    is closed under multiplication into divisors of m.
    """
    p = minimal_position_period(pattern.offsets)
    return {bp for bp in _divisors(pattern.m) if (2 * bp) % p == 0}


@dataclass(frozen=True)
class PatternTransform:
    """A cycle relabeling preserving pattern validity.

    Application order: reverse the traversal direction about vertex 0 when
    reflect is set, then rotate the starting vertex by `shift` (an even
    number of vertices).  Both operations keep the Hamiltonian cycle, the
    girth and the derived symmetry factors intact.
    """

    shift: int = 0
    reflect: bool = False

    def __post_init__(self):
        if self.shift % 2 != 0:
            raise ValueError(f"shift must be even, got {self.shift}")


def _transformed_offsets(t: PatternTransform, offsets: tuple[int, ...], n: int) -> tuple[int, ...]:
    b2 = len(offsets)
    seq = list(offsets)
    if t.reflect:
        seq = [n - offsets[(-j) % b2] for j in range(b2)]
    s = t.shift % b2
    return tuple(seq[(j + s) % b2] for j in range(b2))


def canonical_group(b: int) -> tuple[PatternTransform, ...]:
    """The b even rotations and their reflected companions."""
    shifts = range(0, 2 * b, 2)
    return tuple(
        PatternTransform(shift=s, reflect=r)
        for r in (False, True)
        for s in shifts
    )


def canonical_form(pattern: OffsetPattern) -> OffsetPattern:
    """Lexicographically smallest offset sequence over the canonical group.

    Idempotent; all members of an orbit expand to isomorphic graphs, so the
    canonical form is a dedup key for witnesses (finer than full graph
    isomorphism, which may identify patterns across different Hamiltonian
    cycles).
    """
    n = pattern.order
    best = min(
        _transformed_offsets(t, pattern.offsets, n)
        for t in canonical_group(pattern.b)
    )
    if best == pattern.offsets:
        return pattern
    return validate_pattern(pattern.m, pattern.b, best)
