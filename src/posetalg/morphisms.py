"""Constructive homomorphisms out of a poset algebra.

Everything here rides on the universal extension property: an
order-preserving assignment of the generators into any Boolean algebra
extends uniquely to a homomorphism.  A hom names its target by its unit: an
int for the clopens below that mask, or an element u of a poset algebra for
the part below u, so a relativization to x_q is one more extension.  An
element on support S is a truth table over the traces of S.  The traces t
partition the final segments, so the products x_t * -x_{S-t} are disjoint,
nonzero and join to 1; the extension sends the element to the join of their
images at its true traces, the unit met with the images of t and the
complements of the others, read from one int table per support: over a
poset, the unit and the images are lifted once onto U, the union of their
supports.  The module builds the extension, subposet embeddings,
relativizations to a generator, the collapse onto a linear augmentation,
the two-variable product map, lexicographic layering checks, the block
decomposition of a directed poset along a cofinal chain, and the
isomorphism of a finite chain's ray algebra with the algebra of the chain
minus its minimum.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate
from operator import or_

from . import algebra, lattice, stone
from .errors import (
    BadArity,
    NotAnEmbedding,
    NotCofinal,
    NotDirected,
    NotOrderPreserving,
    PosetMismatch,
    PremiseFailed,
    UnknownElement,
)
from .poset import _bits, _byte_tables, _gather, chain, lex_sum, product


def _image_table(unit, images, count, cols):
    """Image of x_t * -x_{S-t} for each of the ``count`` traces t of a support
    S, in order, from S's columns ``cols``: the int ``unit`` ANDed with the
    int image of each element of t and the complement of each other one.
    Each column is read once, as a string of its bits from trace 0 up."""
    table = [unit] * count
    for p, col in cols.items():
        img = images[p]
        pair = (~img, img)
        bits = format(col, f"0{count}b")[::-1]
        table = [term & pair[bit == "1"] for term, bit in zip(table, bits)]
    return table


class Hom:
    """Homomorphism from the algebra over ``source`` into the one below ``unit``.

    An int unit stands for the clopens below that mask, an ``AlgebraElem``
    for the part of the algebra over ``unit.poset`` below it (``algebra.one``
    for all of it, x_q for a relativization).  ``gen_image[i]``, the image of
    generator i, is read as its meet with the unit.  The hom computes on
    ints: over a poset, the unit and the images of the elements of a support
    S are lifted onto U, the union of their supports (under
    ``algebra.SUPPORT_CAP``, as a meet of them needs), and a result is
    wrapped once as an element on U.  ``apply`` ORs, over the true traces t
    of an element on S, the images of x_t * -x_{S-t}: one ``_gather`` over
    its truth table, from the byte tables of one int table per support.
    ``apply_via_atoms`` is a second route that never reads those tables: it
    ORs the images of the atoms in the element's clopen instead.
    """

    def __init__(self, source, unit, gen_image):
        self.source = source
        self.unit = unit
        self.gen_image = list(gen_image)
        self._poset = None if isinstance(unit, int) else unit.poset
        if self._poset is not None and any(
                getattr(img, "poset", None) is not self._poset for img in self.gen_image):
            raise PosetMismatch("generator image not over the unit's poset")
        self._tables = {}
        self._space = None
        self._atoms = None

    def _ints(self, support):
        """(U, unit, images): the unit and the images of the elements of
        ``support`` as ints, the images indexed by source id; over a poset,
        their tables lifted onto U, the union of their supports."""
        if self._poset is None:
            return None, self.unit, self.gen_image
        ids = _bits(support)
        elems = [self.unit] + [self.gen_image[p] for p in ids]
        union = reduce(or_, [e.support for e in elems])
        cols, full = algebra._columns(self._poset, union)
        unit, *lifted = [algebra._lift(e, union, cols, full) for e in elems]
        return union, unit, dict(zip(ids, lifted))

    def _wrap(self, union, m):
        """The target value of the int ``m`` over the traces of ``union``."""
        if self._poset is None:
            return m
        return algebra.AlgebraElem(self._poset, union, m)

    def apply(self, e):
        if e.poset is not self.source:
            raise PosetMismatch("element not over the source poset")
        got = self._tables.get(e.support)
        if got is None:
            union, unit, images = self._ints(e.support)
            got = self._tables[e.support] = (
                union, _byte_tables(_image_table(unit, images, e.entry[0], e.entry[2])))
        union, tables = got
        if e.truth < 256 and tables.__class__ is list:
            return self._wrap(union, tables[0][e.truth])
        return self._wrap(union, _gather(tables, e.truth))

    def space(self):
        if self._space is None:
            self._space = stone.StoneSpace(self.source)
        return self._space

    def _atom_ints(self):
        """(U, the int image of each atom of the source algebra, one per
        final segment): the unit met with the images of the segment's
        elements and the complements of the others."""
        if self._atoms is None:
            union, unit, images = self._ints(self.source.full)
            atoms = []
            for seg in self.space().points:
                term = unit
                for p in range(self.source.n):
                    term &= images[p] if seg >> p & 1 else ~images[p]
                atoms.append(term)
            self._atoms = union, atoms
        return self._atoms

    def atom_image(self):
        """Image of each atom of the source algebra (one per final segment)."""
        union, atoms = self._atom_ints()
        return [self._wrap(union, m) for m in atoms]

    def apply_via_atoms(self, e):
        """Independent second route: join the images of the atoms under e."""
        union, atoms = self._atom_ints()
        return self._wrap(union, stone.denote_and_map(atoms, stone.denote_elem(self.space(), e)))


def extend_hom(source, unit, gen_image):
    """Extension of an order-preserving generator assignment into the
    algebra below ``unit`` (see ``Hom``).

    ``gen_image[p]`` is the image of source id p.  Raises BadArity unless
    there is one image per source element, UnknownElement for a negative int
    unit or an int image that is negative or not below it, and
    NotOrderPreserving with a witnessing pair if the assignment is not
    order-preserving below the unit: p <= q needs the meet of p's image with
    the unit below q's image.
    """
    images = list(gen_image)
    if len(images) != source.n:
        raise BadArity(f"{len(images)} generator images for {source.n} elements")
    on_ints = isinstance(unit, int)
    if on_ints and unit < 0:
        raise UnknownElement(f"negative unit {unit:#x}")
    if on_ints and any(img < 0 or img & ~unit for img in images):
        raise UnknownElement(f"an image is negative or not below the unit {unit:#x}")
    for p in range(source.n):
        above = source.up[p] & ~(1 << p)
        a = images[p] if on_ints or not above else algebra.meet(images[p], unit)
        for q in _bits(above):
            b = images[q]
            if (a & ~b) if on_ints else not algebra.leq(a, b):
                raise NotOrderPreserving(source.names[p], source.names[q])
    return Hom(source, unit, images)


# -- subposet embedding ---------------------------------------------------------


def subposet_embedding(sub, ambient, inclusion):
    """Embedding of the algebra over ``sub`` into the one over ``ambient``.

    ``inclusion[a]`` is the ambient id of sub id a; it must be an order
    embedding (comparabilities agree in both directions).  Raises BadArity
    unless there is one ambient id per sub element.  Generator a goes to the
    generator of ``inclusion[a]``; the checked embedding makes that
    assignment order-preserving, so it extends with no order check.
    """
    incl = list(inclusion)
    if len(incl) != sub.n:
        raise BadArity(f"{len(incl)} ambient ids for {sub.n} elements")
    # a name is no id: comparing it with an int raises TypeError; a bool is
    # no id either, as in Poset.id
    if not all(not isinstance(i, bool) and 0 <= i < ambient.n for i in incl):
        raise UnknownElement("inclusion id out of range")
    if len(set(incl)) != sub.n:
        raise NotAnEmbedding("inclusion not injective")
    for a in range(sub.n):
        for b in range(sub.n):
            if sub.up[a] >> b & 1 != ambient.up[incl[a]] >> incl[b] & 1:
                raise NotAnEmbedding(
                    f"comparability of {sub.names[a]!r},{sub.names[b]!r} not preserved"
                )
    gens = [algebra.product_elem(ambient, 1 << i) for i in incl]
    return Hom(sub, algebra.one(ambient), gens)


# -- relativization --------------------------------------------------------------


def relativize(poset, q):
    """(hom, ids): the algebra over the elements not above q (``hom.source``,
    whose id a is ``ids[a]`` in ``poset``) onto the part below x_q, the
    hom's unit, each generator sent to its own generator met with x_q: the
    generator images of the subposet embedding, under a new unit."""
    qid = poset.id(q)
    sub, ids = poset.induced(poset.full & ~poset.upset(1 << qid))
    embedding = subposet_embedding(sub, poset, ids)
    return Hom(sub, algebra.gen(poset, qid), embedding.gen_image), ids


# -- chain epimorphism ------------------------------------------------------------


def chain_epimorphism(poset, augmentation):
    """Collapse onto the algebra of a linear augmentation.

    ``augmentation`` is (chain C, mapping list P-id -> C-id) as produced by
    linear_augmentation; generator p maps to the generator of its image.
    Raises BadArity unless there is one chain id per element of ``poset``,
    and UnknownElement for an id outside the chain.
    """
    c, mapping = augmentation
    if len(mapping) != poset.n:
        raise BadArity(f"{len(mapping)} chain ids for {poset.n} elements")
    if not all(0 <= i < c.n for i in mapping):
        raise UnknownElement("chain id out of range")
    return extend_hom(poset, algebra.one(c), [algebra.gen(c, mapping[p]) for p in range(poset.n)])


# -- the product map --------------------------------------------------------------


class EMap:
    """Two-variable map into the algebra over the product poset.

    apply(a, b) extends a through the columns (fixing the second coordinate)
    and then extends the resulting assignment through the rows; restricted to
    lattice elements both partial applications are homomorphic and the map
    sends generator pairs to product generators.
    """

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self.prod, self.index = product(left, right)
        self._column_homs = {}
        self._row_homs = {}

    def pair_gen(self, p, q):
        return algebra.gen(self.prod, self.index[(self.left.id(p), self.right.id(q))])

    def column_hom(self, q):
        qid = self.right.id(q)
        hom = self._column_homs.get(qid)
        if hom is None:
            images = [
                algebra.gen(self.prod, self.index[(p, qid)]) for p in range(self.left.n)
            ]
            hom = extend_hom(self.left, algebra.one(self.prod), images)
            self._column_homs[qid] = hom
        return hom

    def row_hom(self, a):
        """Extension of q -> column_hom(q)(a); needs a to make it monotone."""
        if not isinstance(a, algebra.AlgebraElem):
            raise TypeError(f"expected an AlgebraElem, got {type(a).__name__}")
        key = algebra.canonical_key(a)
        hom = self._row_homs.get(key)
        if hom is None:
            images = [self.column_hom(q).apply(a) for q in range(self.right.n)]
            hom = extend_hom(self.right, algebra.one(self.prod), images)
            self._row_homs[key] = hom
        return hom

    def apply(self, a, b):
        return self.row_hom(a).apply(b)


# -- product generation ------------------------------------------------------------


def product_generation_check(left, right, sigmas_left, sigmas_right):
    """Do the pairwise map images of two families of products x_sigma, given
    by their sigma masks, generate the product algebra?  Raises PremiseFailed
    unless each family generates its own algebra."""
    gens_left = [algebra.product_elem(left, s) for s in sigmas_left]
    gens_right = [algebra.product_elem(right, s) for s in sigmas_right]
    for poset, gens, side in ((left, gens_left, "left"), (right, gens_right, "right")):
        if not _generates(poset, gens):
            raise PremiseFailed(f"{side} family does not generate its algebra")
    emap = EMap(left, right)
    return _generates(emap.prod, [emap.apply(a, b) for a in gens_left for b in gens_right])


def _generates(poset, elems):
    """Do the elements generate the whole algebra over ``poset``?"""
    space = stone.StoneSpace(poset)
    return stone.generates(space, [stone.denote_elem(space, e) for e in elems])


# -- lexicographic layering ----------------------------------------------------------


def lex_layering_check(index, parts):
    """Within a lexicographic sum, the proper lattice of a lower part must sit
    strictly below the proper lattice of a higher part.

    Layers use the strict lattice enumerations (no empty product, no empty
    join): the unit and zero falsify strict layering at the representation
    level.  Returns None when the layering holds, else a violation dict.
    """
    total = lex_sum(index, parts)
    # each part's lattice, its terms shifted to the part's ids in the sum
    offsets = accumulate((part.n for part in parts), initial=0)
    lattices = [
        [
            lattice.LatticeElem(total, [sigma << off for sigma in le.terms])
            for le in lattice.enumerate_l(part, include_unit=False)
        ]
        for part, off in zip(parts, offsets)
    ]
    built = {}  # each lattice element's algebra element, built on first use

    def elem(le):
        e = built.get(le)
        if e is None:
            e = built[le] = le.to_elem()
        return e

    for xi in range(index.n):
        for zeta in _bits(index.up[xi] & ~(1 << xi)):
            for g in lattices[xi]:
                ge = elem(g)
                for h in lattices[zeta]:
                    he = elem(h)
                    if not algebra.leq(ge, he) or algebra.equals(ge, he):
                        return {
                            "lower_index": index.names[xi],
                            "upper_index": index.names[zeta],
                            "lower": str(g),
                            "upper": str(h),
                        }
    return None


# -- block decomposition along a cofinal chain -----------------------------------------


class HConstructionResult:
    def __init__(self, elems, generates, layering, blocks):
        self.elems = elems  # the assembled generating family, zero included
        self.generates = generates
        self.layering = layering
        self.blocks = blocks  # per chain step, the family contributed by that step


def is_directed(poset):
    """Every pair has an upper bound.  In a finite poset every element lies
    below a maximal one, so that holds iff there is at most one maximal
    element."""
    return poset.maximals().bit_count() <= 1


def h_construction(poset, chain_elems):
    """Generating family assembled along a strictly increasing cofinal chain.

    Step n restricts to the elements not above chain point n, takes all
    product terms there, and contributes x_{chain[n-1]} + y * x_{chain[n]}
    for each such y (with x_{chain[-1]} taken as zero), one ``join_products``
    of those two terms.  Returns the family, whether it generates the whole
    algebra, and whether the step layering holds: each contribution of step
    n lies below x_{chain[n]} and above x_{chain[n-1]}, one ``leq`` each.  As
    the chain increases, x_{chain[m]} lies below x_{chain[n-1]} for every
    m < n, so that puts every earlier contribution below every later one.
    """
    if not is_directed(poset):
        raise NotDirected("h_construction needs a directed poset")
    chain_ids = [poset.id(p) for p in chain_elems]
    for a, b in zip(chain_ids, chain_ids[1:]):
        if not (poset.leq(a, b) and a != b):
            raise NotCofinal("chain is not strictly increasing")
    covered = 0
    for c in chain_ids:
        covered |= poset.down[c]
    if covered != poset.full:
        raise NotCofinal("chain is not cofinal")

    blocks = []
    elems = [algebra.zero(poset)]
    x_chain = [algebra.gen(poset, c) for c in chain_ids]
    for n, c in enumerate(chain_ids):
        keep = poset.full & ~poset.upset(1 << c)
        sub, ids = poset.induced(keep)
        # x_{chain[n-1]} as a one-term join; none at step 0
        prev = [1 << chain_ids[n - 1]] if n else []
        block = []
        for sigma in lattice.enumerate_pi(sub, include_unit=True):
            ambient_sigma = sum(1 << ids[i] for i in _bits(sigma))
            block.append(algebra.join_products(poset, prev + [ambient_sigma | 1 << c]))
        blocks.append(block)
        elems.extend(block)

    # layering: each step's contributions lie below x at that step and above
    # x at the step before, so above the x of every earlier step, as the
    # chain, checked strictly increasing, orders those below it
    layering = all(
        algebra.leq(h, x_chain[n]) and (n == 0 or algebra.leq(x_chain[n - 1], h))
        for n, block in enumerate(blocks) for h in block
    )
    return HConstructionResult(elems, _generates(poset, elems), layering, blocks)


def maximal_chains_to_top(poset):
    """All maximal chains ending at the maximum (as id lists, bottom first).

    Only defined for directed posets (which have a unique maximum)."""
    if poset.n == 0:
        return []
    if not is_directed(poset):
        raise NotDirected("no unique maximum")
    lower_covers = [[] for _ in range(poset.n)]
    for low, high in poset.cover_pairs():
        lower_covers[high].append(low)
    chains = []
    # depth first; lower covers are pushed in reverse, so the first is walked first
    stack = [[poset.maximals().bit_length() - 1]]
    while stack:
        path = stack.pop()
        lows = lower_covers[path[0]]
        stack.extend([low] + path for low in reversed(lows))
        if not lows:
            chains.append(path)
    return chains


# -- interval algebra of a finite chain -------------------------------------------------


def interval_algebra_check(linear):
    """Compare the ray-generated subalgebra of a chain's power set with the
    algebra of the chain minus its minimum.

    The interval algebra of an n-element chain is generated by the left-closed
    rays; the claim is a Boolean isomorphism with the poset algebra of the
    (n-1)-element chain.  Rays shrink as their endpoints grow, so the
    order-preserving generator correspondence pairs the k-th generator with
    the ray at the k-th largest non-minimum element: x_k -> [n-1-k, ->).
    Returns True when that correspondence extends (``extend_hom``) to a
    bijective homomorphism onto the ray algebra of the chain ``linear``.
    Nonzero, pairwise disjoint atom images make the extension injective, and
    two partitions generate the same unions only if they are equal: so it is
    onto the ray algebra iff its atoms go to the rays' signature blocks.
    """
    n = linear.n
    if any(linear.up[i] | linear.down[i] != linear.full for i in range(n)):
        raise PosetMismatch("interval algebra needs a chain")
    if n < 1:
        raise PosetMismatch("interval algebra needs a nonempty chain")
    universe = (1 << n) - 1
    rays = [universe & ~((1 << a) - 1) for a in range(n)]
    rest = chain(n - 1)  # the chain minus its minimum
    gen_ray = rays[:0:-1]  # x_k -> rays[n-1-k]
    try:
        hom = extend_hom(rest, universe, gen_ray)
    except NotOrderPreserving:
        return False
    atoms = hom.atom_image()
    if stone.atom_partition_fault(atoms, universe):
        return False
    if set(atoms) != set(stone.signature_blocks(n, rays)):
        return False
    # generator images come out right under the atom decomposition
    return all(hom.apply_via_atoms(algebra.gen(rest, k)) == r for k, r in enumerate(gen_ray))
