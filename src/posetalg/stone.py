"""Brute-force final-segment semantics: the independent oracle.

The space of all final segments (up-closed subsets) of a finite poset is the
Stone space of its algebra; a generator denotes the clopen set of segments
containing its element.  Clopens are bitmasks over the point list, so every
symbolic decision can be cross-checked set-theoretically.  The generator
clopens are one ``transpose`` of the point list, kept on the space and never
read from ``Poset.columns``, so a fault in the algebra's column build cannot
reach the oracle.

An element on support S is denoted through the space's own points too: they
fall into one block per distinct restriction ``point & S``, and those
restrictions, ascending, are the traces of S in the algebra's order, so the
clopen is the union of the blocks at the true bits of the truth table.  The
blocks are kept on the space per support, and their number is checked
against the element's trace count, so the oracle never reads the algebra's
trace list and a wrong count raises ``CountMismatch``.
"""

from __future__ import annotations

from . import algebra
from .errors import CountMismatch, ParseError, PosetMismatch, SizeLimit, UnknownElement
from .poset import _bits, transpose

# check_binary_subbase decides all 4**n subfamilies of a poset of n elements
# from one table; past this many elements it raises SizeLimit
EXHAUSTIVE_LIMIT = 8


class StoneSpace:
    """All final segments of a poset, sorted ascending as bitmasks.

    ``v_sets`` (the generator clopens) and ``blocks`` (support -> the points
    grouped by their restriction to it) fill in as they are read."""

    __slots__ = ("poset", "points", "full", "v_sets", "blocks")

    def __init__(self, poset):
        self.poset = poset
        self.points = poset.final_segment_masks()
        self.full = (1 << len(self.points)) - 1
        self.v_sets = None
        self.blocks = {}


def v_set(space, p):
    """Clopen denotation of a generator, by name or id: segments containing p."""
    i = space.poset.id(p)
    if space.v_sets is None:
        space.v_sets = transpose(space.points, space.poset.n)
    return space.v_sets[i]


def _point_blocks(space, support):
    """The points grouped by their restriction to ``support``: one clopen
    per distinct restriction, in ascending order of it, so block k is the
    set of points whose restriction is the k-th trace of the support."""
    blocks = space.blocks.get(support)
    if blocks is None:
        by_trace = {}
        for k, point in enumerate(space.points):
            trace = point & support
            by_trace[trace] = by_trace.get(trace, 0) | 1 << k
        blocks = space.blocks[support] = [by_trace[t] for t in sorted(by_trace)]
    return blocks


def denote_elem(space, e):
    """Clopen set of an algebra element: the union of the point blocks of
    its support at the true bits of its table.  Raises CountMismatch when
    the element's trace count is not the number of blocks."""
    if e.poset is not space.poset:
        raise PosetMismatch("element over a different poset")
    # on the full support every block is one point, in the order of the table
    full_support = e.support == space.poset.full
    blocks = space.points if full_support else _point_blocks(space, e.support)
    if len(blocks) != e.count:
        raise CountMismatch({
            "support": space.poset.names_of(e.support),
            "count": e.count,
            "blocks": len(blocks),
        })
    if full_support:
        return e.truth
    return denote_and_map(blocks, e.truth)


def denote_expr(space, node):
    """Set-theoretic denotation of an expression tree (no symbolic algebra).
    A node that is no tuple of one of ``exprs``' shapes, or a tree too deep
    to evaluate, raises ParseError; the shapes are checked here, so the
    oracle reads nothing of the parser."""
    try:
        return _denote(space, node)
    except RecursionError:
        raise ParseError("expression nested too deeply") from None


def _denote(space, node):
    shape = (node[0], len(node)) if node.__class__ is tuple and node else None
    if shape == ("var", 2):
        return v_set(space, node[1])
    if shape == ("const", 2):
        return space.full if node[1] else 0
    if shape == ("not", 2):
        return space.full ^ _denote(space, node[1])
    if shape == ("and", 3):
        return _denote(space, node[1]) & _denote(space, node[2])
    if shape == ("or", 3):
        return _denote(space, node[1]) | _denote(space, node[2])
    raise ParseError(f"bad node {node!r}")


def elem_from_clopen(space, mask):
    """Algebra element (full support) whose denotation is the given clopen."""
    return algebra.AlgebraElem(space.poset, space.poset.full, mask)


# -- subalgebra generation ----------------------------------------------------


def signature_blocks(count, gens):
    """Partition of the points 0..count-1 by their membership pattern in the
    generators.

    The subalgebra generated by ``gens`` is exactly the set of unions of
    these blocks, so it has size 2**len(blocks).  Blocks come in the order of
    their lowest points.  A generator with a bit at or past ``count``, or a
    negative one, raises UnknownElement.
    """
    # a negative g shifts to -1, so one test covers both ends
    if any(g >> count for g in gens):
        raise UnknownElement(f"a generator has bits outside the {count} points")
    by_sig = {}
    for k, sig in enumerate(transpose(gens, count)):
        by_sig[sig] = by_sig.get(sig, 0) | 1 << k
    return list(by_sig.values())


def atom_partition_fault(atom_img, unit):
    """Why y -> OR of atom_img over the bits of y is no isomorphism onto the
    clopens below unit, or None.

    That needs every atom image nonzero and the images pairwise disjoint
    (then the map is injective), and their union equal to the unit.  A
    negative image or unit raises UnknownElement.
    """
    if unit < 0 or min(atom_img, default=0) < 0:
        raise UnknownElement("negative atom image or unit")
    union = 0
    for img in atom_img:
        if not img or img & union:
            return "not injective"
        union |= img
    if union != unit:
        return "unit mismatch"
    return None


def generates(space, gens):
    """True iff the clopens generate the full algebra of the space."""
    return len(signature_blocks(len(space.points), gens)) == len(space.points)


# -- binary subbase check ------------------------------------------------------


def check_binary_subbase(poset):
    """Check the binary-subbase property of {V_p} u {-V_p}.

    Every subfamily with empty intersection must contain two members whose
    pairwise intersection is already empty.  Returns None when the property
    holds, else the lowest violating subfamily as a list of (name, sign)
    pairs.  Every subfamily is decided, so a poset of more than
    ``EXHAUSTIVE_LIMIT`` elements raises SizeLimit before its space is built.
    """
    if poset.n > EXHAUSTIVE_LIMIT:
        raise SizeLimit(f"binary-subbase check on {poset.n} > {EXHAUSTIVE_LIMIT} elements")
    space = StoneSpace(poset)
    family = [(name, "+", v_set(space, i)) for i, name in enumerate(poset.names)]
    family += [(name, "-", space.full ^ mask) for name, _, mask in family]
    sub = _scan_subfamilies([mask for _, _, mask in family], space.full)
    if sub is None:
        return None
    return [(family[k][0], family[k][1]) for k in _bits(sub)]


def _scan_subfamilies(sets, full):
    """Bitmask of the lowest subfamily of ``sets`` that violates the
    binary-subbase property, or None.

    Every non-empty subfamily is answered once from a table indexed by
    subfamily: its entry extends the entry of the same subfamily without its
    top member.
    """
    m = len(sets)
    # partners[k]: the other members whose set is disjoint from member k's
    partners = [
        sum(1 << j for j in range(m) if j != k and not sets[j] & s)
        for k, s in enumerate(sets)
    ]
    inter, paired = [full], [False]
    for s, p in zip(sets, partners):
        inter += [x & s for x in inter]
        paired += [q or p & rest != 0 for rest, q in enumerate(paired)]
    return next((sub for sub in range(1, 1 << m) if not inter[sub] and not paired[sub]), None)


def denote_and_map(atom_img, clopen):
    """Union of ``atom_img[k]`` over the bits k of ``clopen``; UnknownElement
    if ``clopen`` has a bit past the atoms."""
    if clopen >> len(atom_img):
        raise UnknownElement(f"clopen {clopen:#x} has bits past the {len(atom_img)} atoms")
    out = 0
    for k in _bits(clopen):
        out |= atom_img[k]
    return out
