"""Verification suites over the built-in corpus.

Every suite cross-checks a symbolic decision path against the brute-force
final-segment semantics and emits JSON verdict records
{suite, poset, params, verdict, witness?, elapsed_ms}.  The corpus is
exhaustive over non-isomorphic posets up to five elements, with seeded
random posets beyond; verdicts are deterministic given (suite, caps, seed).
"""

from __future__ import annotations

import random
import time
from bisect import bisect_left
from contextlib import contextmanager
from functools import reduce
from itertools import combinations, product
from operator import or_

from . import algebra, corpus, lattice, morphisms, stone, wqo
from .errors import CountMismatch, PremiseFailed, SizeLimit
from .poset import (
    MAX_ELEMENTS,
    _bits,
    antichain,
    chain,
    linear_augmentation,
    rado_prefix,
    random_poset,
    transpose,
)

# seeded random posets of each size past the exhaustive corpus
RANDOM_PER_SIZE = 20


class SuiteConfig:
    def __init__(self, max_size=5, samples=1000, seed=42, horizon=12, strict=False):
        self.max_size = max_size
        self.samples = samples
        self.seed = seed
        self.horizon = horizon
        self.strict = strict


class Witness(Exception):
    """Raised inside ``_Recorder.case`` to end the case as a failure; the one
    argument is the witness written to the record."""


class _Case:
    """What a case body may set: its params and its count of checks."""

    __slots__ = ("params", "cases")

    def __init__(self, params, cases):
        self.params = params
        self.cases = cases


class _Recorder:
    def __init__(self, suite):
        self.suite = suite
        self.results = []
        self.cases = 0
        self.failures = 0

    @contextmanager
    def case(self, label, params=None, *, cases=1, count_as=None, timed=True):
        """Record one case around its body.

        The body counts its checks on the yielded handle's ``cases`` (which
        starts at ``cases``), may fill in ``params``, and raises
        ``Witness(...)`` to end early as a failure; a ``CountMismatch`` from
        the oracle ends it the same way, with that error's witness.  The
        record then carries the time, the count up to that point (also as
        ``params[count_as]`` when that is given) and the params.  Any other
        exception propagates and leaves no record.
        """
        t0 = time.perf_counter()
        case = _Case({} if params is None else params, cases)
        witness = None
        try:
            yield case
        except Witness as exc:
            witness = exc.args[0]
        except CountMismatch as exc:
            witness = exc.witness
        elapsed_ms = round((time.perf_counter() - t0) * 1000, 3) if timed else 0.0
        if count_as:
            case.params[count_as] = case.cases
        self.cases += case.cases
        record = {
            "suite": self.suite,
            "poset": label,
            "params": case.params,
            "verdict": "pass" if witness is None else "fail",
            "elapsed_ms": elapsed_ms,
        }
        if witness is not None:
            self.failures += 1
            record["witness"] = witness
        self.results.append(record)


def _corpus_for(config):
    """Exhaustive corpus up to five elements; seeded random posets beyond."""
    if config.max_size > MAX_ELEMENTS:
        # fail before building the random posets of every smaller size
        raise SizeLimit(f"corpus posets of {config.max_size} > {MAX_ELEMENTS} elements")
    out = [(f"n{p.n}#{i}", p) for i, p in enumerate(corpus.corpus_posets(min(config.max_size, 5)))]
    rng = random.Random(config.seed)
    for size in range(6, config.max_size + 1):
        for k in range(RANDOM_PER_SIZE):
            p = random_poset(size, rng.choice((0.2, 0.35, 0.5)), rng.randrange(1 << 30))
            out.append((f"n{size}r{k}", p))
    return out


def _small_subset_masks(n, max_card):
    masks = [0]
    for r in range(1, min(n, max_card) + 1):
        for combo in combinations(range(n), r):
            masks.append(sum(1 << i for i in combo))
    return masks


def _point_traces(space, ids):
    """Bit j of out[k] is set iff point k of ``space`` holds element ids[j]:
    each point's trace on the listed ids, read off the space's own V_p."""
    return transpose([stone.v_set(space, i) for i in ids], len(space.points))


def _product_denotation(space, sigma):
    """Clopen of the generator product over sigma, set-theoretically."""
    mask = space.full
    for p in _bits(sigma):
        mask &= stone.v_set(space, p)
    return mask


# -- 1. elementary-product zero test vs oracle ---------------------------------


def _fact24_check(space, pairs, case):
    """Check the syntactic zero test on each (sigma, tau) pair against the
    clopen of x_sigma * -x_tau, counting the pairs on the case."""
    poset = space.poset
    vsets = [stone.v_set(space, p) for p in range(poset.n)]
    for s, t in pairs:
        case.cases += 1
        oracle = space.full
        for p in _bits(s):
            oracle &= vsets[p]
        for q in _bits(t):
            oracle &= space.full ^ vsets[q]
        syn = algebra.is_zero_syntactic(poset, s, t)
        if syn != (oracle == 0):
            raise Witness({
                "sigma": poset.names_of(s),
                "tau": poset.names_of(t),
                "syntactic": syn,
                "oracle_empty": oracle == 0,
            })


def suite_fact24(config):
    rec = _Recorder("fact24")
    for label, poset in _corpus_for(config):
        with rec.case(label, cases=0, count_as="pairs") as case:
            space = stone.StoneSpace(poset)
            subsets = _small_subset_masks(poset.n, 3)
            _fact24_check(space, ((s, t) for s in subsets for t in subsets), case)

    # seeded random posets at n=8, config.samples sigma/tau cases total
    rng = random.Random(config.seed)
    remaining = config.samples
    block = 0
    while remaining > 0:
        todo = min(remaining, 20)
        with rec.case(f"n8r{block}", {"pairs": todo}, cases=0) as case:
            poset = random_poset(8, rng.choice((0.2, 0.35, 0.5)), rng.randrange(1 << 30))
            space = stone.StoneSpace(poset)
            draws = ((rng.randrange(1 << poset.n), rng.randrange(1 << poset.n)) for _ in range(todo))
            _fact24_check(space, draws, case)
        remaining -= todo
        block += 1
    return rec, {}


# -- 2. product order: pointwise rule vs segments vs denotations -----------------


def suite_pi_order(config):
    rec = _Recorder("pi-order")
    for label, poset in _corpus_for(config):
        with rec.case(label, cases=0, count_as="pairs") as case:
            space = stone.StoneSpace(poset)
            subsets = _small_subset_masks(poset.n, 3)
            dens = {s: _product_denotation(space, s) for s in subsets}
            ups = {s: poset.upset(s) for s in subsets}
            for s, t in product(subsets, repeat=2):
                case.cases += 1
                pointwise = lattice.pi_leq_masks(poset, s, t)
                segments = ups[s] | ups[t] == ups[s]
                denotation = dens[s] & ~dens[t] == 0
                if not (pointwise == segments == denotation):
                    raise Witness({
                        "sigma": poset.names_of(s),
                        "tau": poset.names_of(t),
                        "pointwise": pointwise,
                        "segments": segments,
                        "denotation": denotation,
                    })
    return rec, {}


# -- 3. join-primeness and the lattice order decision -----------------------------


def suite_join_prime(config):
    rec = _Recorder("join-prime")
    include_unit = not config.strict
    for label, poset in _corpus_for(config):
        if poset.n > 5:
            continue
        with rec.case(label, cases=0, count_as="cases") as case:
            space = stone.StoneSpace(poset)
            pis = lattice.enumerate_pi(poset, include_unit=include_unit)
            dens = [_product_denotation(space, s) for s in pis]
            for i, j, k in product(range(len(pis)), repeat=3):
                case.cases += 1
                if dens[i] & ~(dens[j] | dens[k]) == 0:
                    if dens[i] & ~dens[j] != 0 and dens[i] & ~dens[k] != 0:
                        raise Witness({
                            "sigma": poset.names_of(pis[i]),
                            "tau1": poset.names_of(pis[j]),
                            "tau2": poset.names_of(pis[k]),
                        })
            mism = _l_leq_vs_oracle(poset, space, pis, dens, include_unit)
            case.cases += mism["cases"]
            if mism["witness"] is not None:
                raise Witness(mism["witness"])
    return rec, {}


def _l_leq_vs_oracle(poset, space, pis, dens, include_unit):
    """Pairwise l_leq vs denotation inclusion over the full lattice enumeration."""
    pi_index = {s: i for i, s in enumerate(pis)}
    elems = lattice.enumerate_l(poset, include_unit=include_unit)
    # column t: bitmask over product indices s with x_s <= x_t
    below_col = []
    for t in pis:
        col = 0
        for i, s in enumerate(pis):
            if lattice.pi_leq_masks(poset, s, t):
                col |= 1 << i
        below_col.append(col)
    term_mask = []
    covered = []
    den = []
    for e in elems:
        tm = 0
        cov = 0
        dn = 0
        for sigma in e.terms:
            idx = pi_index[sigma]
            tm |= 1 << idx
            cov |= below_col[idx]
            dn |= dens[idx]
        term_mask.append(tm)
        covered.append(cov)
        den.append(dn)
    n = len(elems)
    witness = None
    sym_rows = lattice._subset_rows(term_mask, covered)
    orc_rows = lattice._subset_rows(den, den)
    for i, (sym, orc) in enumerate(zip(sym_rows, orc_rows)):
        if sym != orc:
            diff = sym ^ orc
            j = (diff & -diff).bit_length() - 1
            witness = {"a": str(elems[i]), "b": str(elems[j]),
                       "l_leq": bool(sym >> j & 1), "oracle": bool(orc >> j & 1)}
            break
    return {"cases": n * n, "witness": witness}


# -- 4. initial segments vs products ------------------------------------------------


def suite_is_pi_iso(config):
    rec = _Recorder("is-pi-iso")
    posets = list(_corpus_for(config))
    posets.extend((f"rado{n}", rado_prefix(n)) for n in (3, 4, 5))
    for label, poset in posets:
        with rec.case(label, {"n": poset.n}):
            fail = lattice.is_iso_IS_to_Pi(poset)
            if fail is not None:
                raise Witness(fail)
    return rec, {}


# -- 5. chain collapse ---------------------------------------------------------------


def suite_chain_lattice(config):
    rec = _Recorder("chain-lattice")
    for n in range(1, 9):
        with rec.case(f"chain{n}") as case:
            c = chain(n)
            gens = [algebra.gen(c, p) for p in range(n)]
            closed = lattice.lattice_closure(c, gens)
            case.params["closure"] = len(closed)
            keys = {algebra.canonical_key(e) for e in closed}
            if keys != {algebra.canonical_key(e) for e in gens}:
                raise Witness({"size": len(closed)})

    include_unit = not config.strict
    for label, poset in _corpus_for(config):
        if poset.n > 5:
            continue
        with rec.case(label) as case:
            aug = linear_augmentation(poset, config.seed)
            c, mapping = aug
            space_c = stone.StoneSpace(c)
            space = stone.StoneSpace(poset)
            # each point of the chain pulls back to a final segment: its id here
            pullback_ids = []
            for pb in _point_traces(space_c, mapping):
                i = bisect_left(space.points, pb)
                if i == len(space.points) or space.points[i] != pb:
                    raise Witness({"reason": "pullback not a final segment",
                                   "pullback": poset.names_of(pb)})
                pullback_ids.append(i)

            def transfer(elem):
                den = stone.denote_elem(space, elem)
                return sum((den >> i & 1) << k for k, i in enumerate(pullback_ids))

            gen_images = [transfer(algebra.gen(poset, p)) for p in range(poset.n)]
            surjective = stone.generates(space_c, gen_images)

            l_src = lattice.enumerate_l(poset, include_unit=include_unit)
            l_tgt = lattice.enumerate_l(c, include_unit=include_unit)
            case.params["lattice"] = len(l_src)
            image = {transfer(e.to_elem()) for e in l_src}
            target = {reduce(or_, [_product_denotation(space_c, s) for s in e.terms], 0)
                      for e in l_tgt}
            lattice_onto = image == target

            # chain lattice is the generators (plus the unit when included)
            expected = {stone.v_set(space_c, p) for p in range(c.n)}
            if include_unit:
                expected.add(space_c.full)
            chain_form = target == expected if c.n else True

            # dual-route honesty: the definitional extension agrees with the
            # segment-pullback transfer on a sample
            hom = morphisms.chain_epimorphism(poset, aug)
            rng = random.Random(config.seed)
            sample = l_src if len(l_src) <= 12 else rng.sample(l_src, 12)
            dual_ok = all(
                stone.denote_elem(space_c, hom.apply(e.to_elem())) == transfer(e.to_elem())
                for e in sample
            )

            if not (surjective and lattice_onto and chain_form and dual_ok):
                raise Witness({
                    "surjective": surjective,
                    "latticeOnto": lattice_onto,
                    "chainForm": chain_form,
                    "dualRoute": dual_ok,
                })
    return rec, {}


# -- 6. the Rado prefix: wide products, bad pair array --------------------------------


def suite_rado(config):
    rec = _Recorder("rado")
    widths = []
    for n in (4, 5, 6):
        with rec.case(f"rado{n}") as case:
            poset = rado_prefix(n)
            pis = lattice.enumerate_pi(poset, include_unit=False)
            members, exact = lattice.max_antichain(pis, lattice.term_segments(poset, pis))
            widths.append(len(members))
            case.params.update(products=len(pis), exact=exact)
            if len(members) < n - 1:
                raise Witness({"antichain": len(members)})
    with rec.case("rado-width-growth", {"widths": widths}, timed=False):
        if any(a > b for a, b in zip(widths, widths[1:])):
            raise Witness({"widths": widths})

    with rec.case(f"front(2,{config.horizon})") as case:
        arr = wqo.rado_identity_labeling(config.horizon)
        verdict = wqo.classify_array(arr)["verdict"]
        pairs = list(arr.front.related_pairs())
        good = sum(1 for s, t in pairs if arr.poset.up[arr.label[s]] >> arr.label[t] & 1)
        case.params["relatedPairs"] = len(pairs)
        # bad means no related pair ascends, vacuously so when there are none
        if good:
            raise Witness({"verdict": verdict, "goodPairs": good})
    return rec, {"badArray": not good, "antichainSize": widths[-1]}


# -- 7/8. the product map and product generation ---------------------------------------


def _emap_bases():
    return [
        ("chain1", chain(1)),
        ("chain2", chain(2)),
        ("antichain2", antichain(2)),
        ("v3", corpus.v3()),
    ]


def suite_emap(config):
    rec = _Recorder("emap")
    include_unit = not config.strict
    for (ln, left), (rn, right) in [(a, b) for a in _emap_bases() for b in _emap_bases()]:
        with rec.case(f"{ln}x{rn}", cases=0, count_as="cases") as case:
            em = morphisms.EMap(left, right)
            space = stone.StoneSpace(em.prod)
            lp = lattice.enumerate_l(left, include_unit=include_unit)
            lq = lattice.enumerate_l(right, include_unit=include_unit)
            lp_elems = [e.to_elem() for e in lp]
            lq_elems = [e.to_elem() for e in lq]
            pis_prod = lattice.enumerate_pi(em.prod, include_unit=True)
            den_prod = [_product_denotation(space, s) for s in pis_prod]

            # 1: generator pairs land on product generators
            for p, q in product(range(left.n), range(right.n)):
                case.cases += 1
                got = em.apply(algebra.gen(left, p), algebra.gen(right, q))
                if not algebra.equals(got, em.pair_gen(p, q)):
                    raise Witness({"prop": 1, "p": left.names[p], "q": right.names[q]})

            # membership: images stay inside the product lattice
            images = {}
            for (i, a), (j, b) in product(enumerate(lp_elems), enumerate(lq_elems)):
                case.cases += 1
                e = em.apply(a, b)
                images[(i, j)] = e
                den = stone.denote_elem(space, e)
                cover = 0
                for dn in den_prod:
                    if dn & ~den == 0:
                        cover |= dn
                if cover != den:
                    raise Witness({"prop": "membership", "a": str(lp[i]), "b": str(lq[j])})

            # 2: fixing the first argument is homomorphic (lattice ops + both routes)
            space_r = stone.StoneSpace(right)
            for i, a in enumerate(lp_elems):
                hom = em.row_hom(a)
                for m in range(1 << len(space_r.points)):
                    case.cases += 1
                    e = stone.elem_from_clopen(space_r, m)
                    if not algebra.equals(hom.apply(e), hom.apply_via_atoms(e)):
                        raise Witness({"prop": 2, "a": str(lp[i]), "elem": m})
                for (j1, b1), (j2, b2) in product(enumerate(lq_elems), repeat=2):
                    case.cases += 1
                    for op, fn in (("meet", algebra.meet), ("join", algebra.join)):
                        lhs = em.apply(a, fn(b1, b2))
                        rhs = fn(images[(i, j1)], images[(i, j2)])
                        if not algebra.equals(lhs, rhs):
                            raise Witness({"prop": 2, "op": op, "a": str(lp[i]),
                                           "b1": str(lq[j1]), "b2": str(lq[j2])})

            # 3: fixing a generator second argument is homomorphic in the first
            space_l = stone.StoneSpace(left)
            for q in range(right.n):
                col = em.column_hom(q)
                xq = algebra.gen(right, q)
                for i, a in enumerate(lp_elems):
                    case.cases += 1
                    if not algebra.equals(em.apply(a, xq), col.apply(a)):
                        raise Witness({"prop": 3, "q": right.names[q], "a": str(lp[i])})
                for m in range(1 << len(space_l.points)):
                    case.cases += 1
                    e = stone.elem_from_clopen(space_l, m)
                    if not algebra.equals(col.apply(e), col.apply_via_atoms(e)):
                        raise Witness({"prop": 3, "q": right.names[q], "elem": m})

            # 4: monotone in the first argument
            for j, i1, i2 in product(range(len(lq)), range(len(lp)), range(len(lp))):
                if not lattice.l_leq(lp[i1], lp[i2]):
                    continue
                case.cases += 1
                if not algebra.leq(images[(i1, j)], images[(i2, j)]):
                    raise Witness({"prop": 4, "a1": str(lp[i1]),
                                   "a2": str(lp[i2]), "b": str(lq[j])})
    return rec, {}


def suite_product_gen(config):
    rec = _Recorder("product-gen")
    for (ln, left), (rn, right) in [(a, b) for a in _emap_bases() for b in _emap_bases()]:
        with rec.case(f"{ln}x{rn}") as case:
            a_gens = lattice.enumerate_pi(left, include_unit=True)
            b_gens = lattice.enumerate_pi(right, include_unit=True)
            case.params.update(A=len(a_gens), B=len(b_gens))
            if not morphisms.product_generation_check(left, right, a_gens, b_gens):
                raise Witness({"generates": False})
    # the premise check trips when a family does not generate
    with rec.case("premise-probe"):
        c2 = chain(2)
        try:
            morphisms.product_generation_check(c2, c2, [0], [0])  # the unit alone
        except PremiseFailed:
            pass
        else:
            raise Witness({"raised": False})
    return rec, {}


# -- 9. relativization ------------------------------------------------------------------


def suite_relativize(config):
    rec = _Recorder("relativize")
    rng = random.Random(config.seed)
    for label, poset in _corpus_for(config):
        if poset.n > 5:
            continue
        with rec.case(label, {"qs": poset.n}, cases=0) as case:
            space = stone.StoneSpace(poset)
            for q in range(poset.n):
                case.cases += 1
                rel, sub_ids = morphisms.relativize(poset, q)
                sub_space = stone.StoneSpace(rel.source)
                vq = stone.denote_elem(space, rel.unit)
                inside = _bits(vq)

                # segment traces restrict to a bijection onto the sub-segments
                sub_traces = _point_traces(space, sub_ids)
                traces = [sub_traces[k] for k in inside]
                if sorted(traces) != list(sub_space.points):
                    raise Witness({"q": poset.names[q], "reason": "trace map not bijective"})

                m = len(sub_space.points)
                atom_img = [0] * m
                for tr, k in zip(traces, inside):
                    atom_img[bisect_left(sub_space.points, tr)] |= 1 << k
                reason = stone.atom_partition_fault(atom_img, vq)
                if reason:
                    raise Witness({"q": poset.names[q], "reason": reason})

                # spot-check the definitional route against the transfer route
                for y_mask in _sample_masks(rng, 1 << m, 20):
                    case.cases += 1
                    y = stone.elem_from_clopen(sub_space, y_mask)
                    den = stone.denote_elem(space, rel.apply(y))
                    if den != stone.denote_and_map(atom_img, y_mask):
                        raise Witness({"q": poset.names[q], "reason": "route mismatch",
                                       "y": y_mask})
    return rec, {}


def _sample_masks(rng, space_size, count):
    if space_size <= count:
        return list(range(space_size))
    return [rng.randrange(space_size) for _ in range(count)]


# -- 10. block decomposition along cofinal chains ------------------------------------------


def suite_h_construction(config):
    rec = _Recorder("h-construction")
    posets = corpus.directed_corpus(min(config.max_size + 1, 6))
    for idx, poset in enumerate(posets):
        with rec.case(f"directed{poset.n}#{idx}", cases=0, count_as="chains") as case:
            for chain_ids in morphisms.maximal_chains_to_top(poset):
                case.cases += 1
                res = morphisms.h_construction(poset, chain_ids)
                if not (res.generates and res.layering):
                    raise Witness({
                        "chain": [poset.names[i] for i in chain_ids],
                        "generates": res.generates,
                        "layering": res.layering,
                    })
    return rec, {}


# -- 11. the universal property --------------------------------------------------------------


def _random_monotone_assignment(rng, poset, target_space):
    """Seeded order-preserving assignment into the clopen algebra of a space."""
    size = len(target_space.points)
    univ = (1 << size) - 1
    images = [None] * poset.n
    for p in poset.linear_extension():
        floor = 0
        for below in _bits(poset.down[p] & ~(1 << p)):
            floor |= images[below]
        candidates = [m for m in range(univ + 1) if m & floor == floor]
        images[p] = candidates[rng.randrange(len(candidates))]
    return images


def suite_hom_laws(config):
    rec = _Recorder("hom-laws")
    rng = random.Random(config.seed)
    triples = 200
    for k in range(triples):
        n_src = rng.randrange(1, 5)
        n_tgt = rng.randrange(1, 4)
        with rec.case(f"triple{k}", {"src": n_src, "tgt": n_tgt}, cases=0) as case:
            source = random_poset(n_src, rng.choice((0.0, 0.3, 0.6)), rng.randrange(1 << 30))
            tgt_poset = random_poset(n_tgt, rng.choice((0.0, 0.5)), rng.randrange(1 << 30))
            tgt_space = stone.StoneSpace(tgt_poset)
            unit = tgt_space.full
            images = _random_monotone_assignment(rng, source, tgt_space)
            hom = morphisms.extend_hom(source, unit, images)

            # generators map to their assigned images
            for p in range(source.n):
                case.cases += 1
                if hom.apply(algebra.gen(source, p)) != images[p]:
                    raise Witness({"reason": "generator image", "p": source.names[p]})

            # atom images partition the target unit
            atoms = hom.atom_image()
            total = 0
            for i, a in enumerate(atoms):
                total |= a
                for b in atoms[i + 1:]:
                    case.cases += 1
                    if a & b:
                        raise Witness({"reason": "atoms overlap"})
            if total != unit:
                raise Witness({"reason": "atoms do not cover"})

            # the two evaluation routes agree (uniqueness of the extension)
            src_space = hom.space()
            count = 1 << len(src_space.points)
            masks = range(count) if count <= 256 else _sample_masks(rng, count, 120)
            for m in masks:
                case.cases += 1
                e = stone.elem_from_clopen(src_space, m)
                if hom.apply(e) != hom.apply_via_atoms(e):
                    raise Witness({"reason": "route mismatch", "elem": m})

            # sampled pairs respect the operations
            for _ in range(40):
                case.cases += 3
                m1, m2 = rng.randrange(count), rng.randrange(count)
                e1 = stone.elem_from_clopen(src_space, m1)
                e2 = stone.elem_from_clopen(src_space, m2)
                if hom.apply(algebra.meet(e1, e2)) != hom.apply(e1) & hom.apply(e2):
                    raise Witness({"reason": "meet law", "pair": [m1, m2]})
                if hom.apply(algebra.join(e1, e2)) != hom.apply(e1) | hom.apply(e2):
                    raise Witness({"reason": "join law", "pair": [m1, m2]})
                if hom.apply(algebra.complement(e1)) != unit ^ hom.apply(e1):
                    raise Witness({"reason": "complement law", "elem": m1})
    return rec, {}


# -- 12. binary subbase -------------------------------------------------------------------------


def suite_binary_subbase(config):
    rec = _Recorder("binary-subbase")
    for label, poset in _corpus_for(config):
        if poset.n > 5:
            continue
        if poset.n <= stone.EXHAUSTIVE_LIMIT:
            params = {"mode": "exhaustive"}
        else:
            params = {"mode": "sampled", "samples": stone.SAMPLES}
        with rec.case(label, params):
            witness = stone.check_binary_subbase(poset, config.seed)
            if witness is not None:
                raise Witness(witness)
    return rec, {}


# -- 13. interval algebra -------------------------------------------------------------------------


def suite_interval_algebra(config):
    rec = _Recorder("interval-algebra")
    for n in range(1, 7):
        with rec.case(f"chain{n}", {"n": n}):
            if not morphisms.interval_algebra_check(chain(n)):
                raise Witness({"isomorphic": False})
    return rec, {}


# -- 14. lexicographic layering --------------------------------------------------------------------


def suite_lex_layering(config):
    rec = _Recorder("lex-layering")
    rng = random.Random(config.seed)
    sizes = [corpus.all_posets(n) for n in range(4)]
    for k in range(50):
        with rec.case(f"lex{k}") as case:
            idx_n = rng.randrange(1, 4)
            index = rng.choice(sizes[idx_n])
            parts = [rng.choice(sizes[rng.randrange(0, 4)]) for _ in range(index.n)]
            case.params.update(index=index.n, parts=[p.n for p in parts])
            violation = morphisms.lex_layering_check(index, parts)
            if violation is not None:
                raise Witness(violation)
    return rec, {}


# -- driver ------------------------------------------------------------------------------------------


SUITES = {
    "fact24": suite_fact24,
    "pi-order": suite_pi_order,
    "join-prime": suite_join_prime,
    "is-pi-iso": suite_is_pi_iso,
    "chain-lattice": suite_chain_lattice,
    "rado": suite_rado,
    "emap": suite_emap,
    "product-gen": suite_product_gen,
    "relativize": suite_relativize,
    "hom-laws": suite_hom_laws,
    "h-construction": suite_h_construction,
    "binary-subbase": suite_binary_subbase,
    "interval-algebra": suite_interval_algebra,
    "lex-layering": suite_lex_layering,
}


def run_suite(name, config=None):
    """Run one suite (or 'all') and return the aggregate report dict."""
    config = config or SuiteConfig()
    if name == "all":
        merged = {"suite": "all", "cases": 0, "failures": 0, "suites": []}
        for sub in SUITES:
            report = run_suite(sub, config)
            merged["cases"] += report["cases"]
            merged["failures"] += report["failures"]
            merged["suites"].append(report)
        return merged
    try:
        fn = SUITES[name]
    except KeyError:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'") from None
    t0 = time.perf_counter()
    rec, extras = fn(config)
    report = {
        "suite": name,
        "cases": rec.cases,
        "failures": rec.failures,
        "elapsedMs": round((time.perf_counter() - t0) * 1000, 3),
    }
    report.update(extras)
    if rec.failures:
        first = next(r for r in rec.results if r["verdict"] == "fail")
        report["firstCounterexample"] = first
    report["results"] = rec.results
    return report
