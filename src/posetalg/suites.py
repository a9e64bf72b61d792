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
from dataclasses import dataclass
from itertools import combinations

from . import algebra, corpus, lattice, morphisms, stone, wqo
from .errors import PremiseFailed
from .poset import antichain, chain, iter_bits, linear_augmentation, rado_prefix, random_poset


@dataclass
class SuiteConfig:
    max_size: int = 5
    samples: int = 1000
    seed: int = 42
    horizon: int = 12
    strict: bool = False
    random_per_size: int = 20


class _Recorder:
    def __init__(self, suite):
        self.suite = suite
        self.results = []
        self.cases = 0
        self.failures = 0

    def add(self, poset_label, params, ok, witness=None, cases=1, elapsed_ms=None):
        self.cases += cases
        record = {
            "suite": self.suite,
            "poset": poset_label,
            "params": params,
            "verdict": "pass" if ok else "fail",
            "elapsed_ms": 0 if elapsed_ms is None else round(elapsed_ms, 3),
        }
        if not ok:
            self.failures += 1
            record["witness"] = witness
        self.results.append(record)

    def timed(self):
        return time.perf_counter()


def _corpus_for(config):
    """Exhaustive corpus up to five elements; seeded random posets beyond."""
    out = [(f"n{p.n}#{i}", p) for i, p in enumerate(corpus.corpus_posets(min(config.max_size, 5)))]
    rng = random.Random(config.seed)
    for size in range(6, config.max_size + 1):
        for k in range(config.random_per_size):
            p = random_poset(size, rng.choice((0.2, 0.35, 0.5)), rng.randrange(1 << 30))
            out.append((f"n{size}r{k}", p))
    return out


def _small_subset_masks(n, max_card):
    masks = [0]
    for r in range(1, min(n, max_card) + 1):
        for combo in combinations(range(n), r):
            masks.append(sum(1 << i for i in combo))
    return masks


def _product_denotation(space, sigma):
    """Clopen of the generator product over sigma, set-theoretically."""
    mask = space.full
    for p in iter_bits(sigma):
        mask &= stone.v_set(space, p)
    return mask


# -- 1. elementary-product zero test vs oracle ---------------------------------


def _fact24_fault(space, pairs):
    """Check the syntactic zero test on each (sigma, tau) pair against the
    clopen of x_sigma * -x_tau.  Returns (witness or None, pairs checked)."""
    poset = space.poset
    vsets = [stone.v_set(space, p) for p in range(poset.n)]
    cases = 0
    for s, t in pairs:
        cases += 1
        oracle = space.full
        for p in iter_bits(s):
            oracle &= vsets[p]
        for q in iter_bits(t):
            oracle &= space.full ^ vsets[q]
        syn = algebra.is_zero_syntactic(poset, s, t)
        if syn != (oracle == 0):
            return {
                "sigma": poset.names_of(s),
                "tau": poset.names_of(t),
                "syntactic": syn,
                "oracle_empty": oracle == 0,
            }, cases
    return None, cases


def suite_fact24(config):
    rec = _Recorder("fact24")
    for label, poset in _corpus_for(config):
        t0 = rec.timed()
        space = stone.StoneSpace(poset)
        subsets = _small_subset_masks(poset.n, 3)
        witness, cases = _fact24_fault(space, ((s, t) for s in subsets for t in subsets))
        rec.add(label, {"pairs": cases}, witness is None, witness, cases,
                (rec.timed() - t0) * 1000)

    # seeded random posets at n=8, config.samples sigma/tau cases total
    rng = random.Random(config.seed)
    remaining = config.samples
    block = 0
    while remaining > 0:
        t0 = rec.timed()
        poset = random_poset(8, rng.choice((0.2, 0.35, 0.5)), rng.randrange(1 << 30))
        space = stone.StoneSpace(poset)
        todo = min(remaining, 20)
        draws = ((rng.randrange(1 << poset.n), rng.randrange(1 << poset.n)) for _ in range(todo))
        witness, _ = _fact24_fault(space, draws)
        rec.add(f"n8r{block}", {"pairs": todo}, witness is None, witness, todo,
                (rec.timed() - t0) * 1000)
        remaining -= todo
        block += 1
    return rec, {}


# -- 2. product order: pointwise rule vs segments vs denotations -----------------


def suite_pi_order(config):
    rec = _Recorder("pi-order")
    for label, poset in _corpus_for(config):
        t0 = rec.timed()
        space = stone.StoneSpace(poset)
        subsets = _small_subset_masks(poset.n, 3)
        dens = {s: _product_denotation(space, s) for s in subsets}
        witness = None
        cases = 0
        for s in subsets:
            for t in subsets:
                cases += 1
                pointwise = lattice.pi_leq_masks(poset, s, t)
                segments = poset.upset(s) | poset.upset(t) == poset.upset(s)
                denotation = dens[s] & ~dens[t] == 0
                if not (pointwise == segments == denotation):
                    witness = {
                        "sigma": poset.names_of(s),
                        "tau": poset.names_of(t),
                        "pointwise": pointwise,
                        "segments": segments,
                        "denotation": denotation,
                    }
                    break
            if witness:
                break
        rec.add(label, {"pairs": cases}, witness is None, witness, cases,
                (rec.timed() - t0) * 1000)
    return rec, {}


# -- 3. join-primeness and the lattice order decision -----------------------------


def suite_join_prime(config):
    rec = _Recorder("join-prime")
    include_unit = not config.strict
    for label, poset in _corpus_for(config):
        if poset.n > 5:
            continue
        t0 = rec.timed()
        space = stone.StoneSpace(poset)
        pis = lattice.enumerate_pi(poset, include_unit=include_unit)
        dens = [_product_denotation(space, s) for s in pis]
        witness = None
        cases = 0
        for i, s in enumerate(pis):
            for j in range(len(pis)):
                for k in range(len(pis)):
                    cases += 1
                    union = dens[j] | dens[k]
                    if dens[i] & ~union == 0:
                        if dens[i] & ~dens[j] != 0 and dens[i] & ~dens[k] != 0:
                            witness = {
                                "sigma": poset.names_of(s),
                                "tau1": poset.names_of(pis[j]),
                                "tau2": poset.names_of(pis[k]),
                            }
                            break
                if witness:
                    break
            if witness:
                break

        if witness is None:
            mism = _l_leq_vs_oracle(poset, space, pis, dens, include_unit)
            cases += mism["cases"]
            witness = mism["witness"]
        rec.add(label, {"cases": cases}, witness is None, witness, cases,
                (rec.timed() - t0) * 1000)
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
            j = next(iter_bits(sym ^ orc))
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
        t0 = rec.timed()
        fail = lattice.is_iso_IS_to_Pi(poset)
        rec.add(label, {"n": poset.n}, fail is None, fail, 1,
                (rec.timed() - t0) * 1000)
    return rec, {}


# -- 5. chain collapse ---------------------------------------------------------------


def _pullback_traces(source, mapping, target_space):
    """Trace in the source of each target segment, for x_p -> x_{m(p)} maps."""
    out = []
    for seg in target_space.points:
        trace = 0
        for p in range(source.n):
            if seg >> mapping[p] & 1:
                trace |= 1 << p
        out.append(trace)
    return out


def suite_chain_lattice(config):
    rec = _Recorder("chain-lattice")
    for n in range(1, 9):
        t0 = rec.timed()
        c = chain(n)
        gens = [algebra.gen(c, p) for p in range(n)]
        closed = lattice.lattice_closure(c, gens)
        keys = {algebra.canonical_key(e) for e in closed}
        expect = {algebra.canonical_key(e) for e in gens}
        ok = keys == expect
        rec.add(f"chain{n}", {"closure": len(closed)}, ok,
                None if ok else {"size": len(closed)}, 1, (rec.timed() - t0) * 1000)

    include_unit = not config.strict
    for label, poset in _corpus_for(config):
        if poset.n > 5:
            continue
        t0 = rec.timed()
        aug = linear_augmentation(poset, config.seed)
        c, mapping = aug
        space_c = stone.StoneSpace(c)
        pullbacks = _pullback_traces(poset, mapping, space_c)

        def transfer(elem):
            m = 0
            for k, pb in enumerate(pullbacks):
                if elem.eval_segment(pb):
                    m |= 1 << k
            return m

        gen_images = [transfer(algebra.gen(poset, p)) for p in range(poset.n)]
        surjective = stone.generates(space_c, gen_images)

        l_src = lattice.enumerate_l(poset, include_unit=include_unit)
        l_tgt = lattice.enumerate_l(c, include_unit=include_unit)
        image = {transfer(e.to_elem()) for e in l_src}
        target = {stone.denote_elem(space_c, e.to_elem()) for e in l_tgt}
        lattice_onto = image == target

        # chain lattice is the generators (plus the unit when included)
        expected = {stone.denote_elem(space_c, algebra.gen(c, p)) for p in range(c.n)}
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

        ok = surjective and lattice_onto and chain_form and dual_ok
        rec.add(label, {"lattice": len(l_src)}, ok,
                None if ok else {
                    "surjective": surjective,
                    "latticeOnto": lattice_onto,
                    "chainForm": chain_form,
                    "dualRoute": dual_ok,
                }, 1, (rec.timed() - t0) * 1000)
    return rec, {}


# -- 6. the Rado prefix: wide products, bad pair array --------------------------------


def suite_rado(config):
    rec = _Recorder("rado")
    widths = []
    for n in (4, 5, 6):
        t0 = rec.timed()
        poset = rado_prefix(n)
        pis = lattice.enumerate_pi(poset, include_unit=False)
        members, exact = lattice.max_antichain(pis, lattice.term_segments(poset, pis))
        widths.append(len(members))
        ok = len(members) >= n - 1
        rec.add(f"rado{n}", {"products": len(pis), "exact": exact},
                ok, None if ok else {"antichain": len(members)}, 1,
                (rec.timed() - t0) * 1000)
    monotone = all(a <= b for a, b in zip(widths, widths[1:]))
    rec.add("rado-width-growth", {"widths": widths}, monotone,
            None if monotone else {"widths": widths}, 1, 0.0)

    t0 = rec.timed()
    arr = wqo.rado_identity_labeling(config.horizon)
    verdict = wqo.classify_array(arr)["verdict"]
    good = sum(
        1 for s, t in arr.front.related_pairs()
        if arr.poset.up[arr.label[s]] >> arr.label[t] & 1
    )
    total = sum(1 for _ in arr.front.related_pairs())
    ok = verdict == "bad" and good == 0
    rec.add(f"front(2,{config.horizon})",
            {"relatedPairs": total}, ok,
            None if ok else {"verdict": verdict, "goodPairs": good}, 1,
            (rec.timed() - t0) * 1000)
    return rec, {"badArray": verdict == "bad", "antichainSize": widths[-1]}


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
        t0 = rec.timed()
        em = morphisms.e_map(left, right)
        space = stone.StoneSpace(em.prod)
        lp = lattice.enumerate_l(left, include_unit=include_unit)
        lq = lattice.enumerate_l(right, include_unit=include_unit)
        lp_elems = [e.to_elem() for e in lp]
        lq_elems = [e.to_elem() for e in lq]
        pis_prod = lattice.enumerate_pi(em.prod, include_unit=True)
        den_prod = [_product_denotation(space, s) for s in pis_prod]
        witness = None
        cases = 0

        # 1: generator pairs land on product generators
        for p in range(left.n):
            for q in range(right.n):
                cases += 1
                got = em.apply(algebra.gen(left, p), algebra.gen(right, q))
                if not algebra.equals(got, em.pair_gen(p, q)):
                    witness = {"prop": 1, "p": left.names[p], "q": right.names[q]}
                    break
            if witness:
                break

        # membership: images stay inside the product lattice
        images = {}
        if witness is None:
            for i, a in enumerate(lp_elems):
                for j, b in enumerate(lq_elems):
                    cases += 1
                    e = em.apply(a, b)
                    images[(i, j)] = e
                    den = stone.denote_elem(space, e)
                    cover = 0
                    for s_idx, dn in enumerate(den_prod):
                        if dn & ~den == 0:
                            cover |= dn
                    if cover != den:
                        witness = {"prop": "membership", "a": str(lp[i]), "b": str(lq[j])}
                        break
                if witness:
                    break

        # 2: fixing the first argument is homomorphic (lattice ops + both routes)
        if witness is None:
            all_q = list(stone.enumerate_algebra(stone.StoneSpace(right)))
            space_r = stone.StoneSpace(right)
            for i, a in enumerate(lp_elems):
                hom = em.row_hom(a)
                for m in all_q:
                    cases += 1
                    e = stone.elem_from_clopen(space_r, m)
                    if not algebra.equals(hom.apply(e), hom.apply_via_atoms(e)):
                        witness = {"prop": 2, "a": str(lp[i]), "elem": m}
                        break
                if witness:
                    break
                for j1, b1 in enumerate(lq_elems):
                    for j2, b2 in enumerate(lq_elems):
                        cases += 1
                        lhs = em.apply(a, algebra.meet(b1, b2))
                        rhs = algebra.meet(images[(i, j1)], images[(i, j2)])
                        if not algebra.equals(lhs, rhs):
                            witness = {"prop": 2, "op": "meet", "a": str(lp[i]),
                                       "b1": str(lq[j1]), "b2": str(lq[j2])}
                            break
                        lhs = em.apply(a, algebra.join(b1, b2))
                        rhs = algebra.join(images[(i, j1)], images[(i, j2)])
                        if not algebra.equals(lhs, rhs):
                            witness = {"prop": 2, "op": "join", "a": str(lp[i]),
                                       "b1": str(lq[j1]), "b2": str(lq[j2])}
                            break
                    if witness:
                        break
                if witness:
                    break

        # 3: fixing a generator second argument is homomorphic in the first
        if witness is None:
            space_l = stone.StoneSpace(left)
            all_p = list(stone.enumerate_algebra(space_l))
            for q in range(right.n):
                col = em.column_hom(q)
                xq = algebra.gen(right, q)
                for i, a in enumerate(lp_elems):
                    cases += 1
                    if not algebra.equals(em.apply(a, xq), col.apply(a)):
                        witness = {"prop": 3, "q": right.names[q], "a": str(lp[i])}
                        break
                if witness:
                    break
                for m in all_p:
                    cases += 1
                    e = stone.elem_from_clopen(space_l, m)
                    if not algebra.equals(col.apply(e), col.apply_via_atoms(e)):
                        witness = {"prop": 3, "q": right.names[q], "elem": m}
                        break
                if witness:
                    break

        # 4: monotone in the first argument
        if witness is None:
            for j, b in enumerate(lq_elems):
                for i1 in range(len(lp)):
                    for i2 in range(len(lp)):
                        if not lattice.l_leq(lp[i1], lp[i2]):
                            continue
                        cases += 1
                        if not algebra.leq(images[(i1, j)], images[(i2, j)]):
                            witness = {"prop": 4, "a1": str(lp[i1]),
                                       "a2": str(lp[i2]), "b": str(lq[j])}
                            break
                    if witness:
                        break
                if witness:
                    break

        rec.add(f"{ln}x{rn}", {"cases": cases}, witness is None, witness, cases,
                (rec.timed() - t0) * 1000)
    return rec, {}


def suite_product_gen(config):
    rec = _Recorder("product-gen")
    for (ln, left), (rn, right) in [(a, b) for a in _emap_bases() for b in _emap_bases()]:
        t0 = rec.timed()
        a_gens = lattice.enumerate_pi(left, include_unit=True)
        b_gens = lattice.enumerate_pi(right, include_unit=True)
        ok = morphisms.product_generation_check(left, right, a_gens, b_gens)
        rec.add(f"{ln}x{rn}", {"A": len(a_gens), "B": len(b_gens)}, ok,
                None if ok else {"generates": False}, 1, (rec.timed() - t0) * 1000)
    # the premise check trips when a family does not generate
    t0 = rec.timed()
    c2 = chain(2)
    try:
        morphisms.product_generation_check(c2, c2, [algebra.one(c2)], [algebra.one(c2)])
        tripped = False
    except PremiseFailed:
        tripped = True
    rec.add("premise-probe", {}, tripped, None if tripped else {"raised": False},
            1, (rec.timed() - t0) * 1000)
    return rec, {}


# -- 9. relativization ------------------------------------------------------------------


def suite_relativize(config):
    rec = _Recorder("relativize")
    rng = random.Random(config.seed)
    for label, poset in _corpus_for(config):
        if poset.n > 5:
            continue
        t0 = rec.timed()
        space = stone.StoneSpace(poset)
        witness = None
        cases = 0
        for q in range(poset.n):
            cases += 1
            rel = morphisms.relativize(poset, q)
            sub_space = stone.StoneSpace(rel.sub)
            vq = stone.denote_elem(space, rel.unit)
            inside = list(iter_bits(vq))

            # segment traces restrict to a bijection onto the sub-segments
            trace_idx = []
            seen = set()
            ok = True
            for k in inside:
                seg = space.points[k]
                tr = 0
                for si, pid in enumerate(rel.sub_ids):
                    if seg >> pid & 1:
                        tr |= 1 << si
                if tr not in sub_space.index or tr in seen:
                    ok = False
                    break
                seen.add(tr)
                trace_idx.append(sub_space.index[tr])
            if not ok or len(seen) != len(sub_space.points):
                witness = {"q": poset.names[q], "reason": "trace map not bijective"}
                break

            m = len(sub_space.points)
            atom_img = [0] * m
            for pos, k in enumerate(inside):
                atom_img[trace_idx[pos]] |= 1 << k
            reason = _atom_partition_fault(atom_img, vq)
            if reason:
                witness = {"q": poset.names[q], "reason": reason}
                break

            # spot-check the definitional route against the transfer route
            for y_mask in _sample_masks(rng, 1 << m, 20):
                cases += 1
                y = stone.elem_from_clopen(sub_space, y_mask)
                den = stone.denote_elem(space, rel.apply(y))
                if den != stone.denote_and_map(sub_space, atom_img, y_mask):
                    witness = {"q": poset.names[q], "reason": "route mismatch",
                               "y": y_mask}
                    break
            if witness:
                break
        rec.add(label, {"qs": poset.n}, witness is None, witness, cases,
                (rec.timed() - t0) * 1000)
    return rec, {}


def _atom_partition_fault(atom_img, unit):
    """Why y -> OR of atom_img over the bits of y is no isomorphism onto the
    clopens below unit, or None.

    That needs every atom image nonzero and the images pairwise disjoint
    (then the map is injective), and their union equal to the unit.
    """
    union = 0
    for img in atom_img:
        if not img or img & union:
            return "not injective"
        union |= img
    if union != unit:
        return "unit mismatch"
    return None


def _sample_masks(rng, space_size, count):
    if space_size <= count:
        return list(range(space_size))
    return [rng.randrange(space_size) for _ in range(count)]


# -- 10. block decomposition along cofinal chains ------------------------------------------


def suite_h_construction(config):
    rec = _Recorder("h-construction")
    posets = corpus.directed_corpus(min(config.max_size + 1, 6))
    for idx, poset in enumerate(posets):
        t0 = rec.timed()
        witness = None
        cases = 0
        for chain_ids in morphisms.maximal_chains_to_top(poset):
            cases += 1
            res = morphisms.h_construction(poset, chain_ids)
            if not (res.generates and res.layering):
                witness = {
                    "chain": [poset.names[i] for i in chain_ids],
                    "generates": res.generates,
                    "layering": res.layering,
                }
                break
        rec.add(f"directed{poset.n}#{idx}", {"chains": cases}, witness is None,
                witness, cases, (rec.timed() - t0) * 1000)
    return rec, {}


# -- 11. the universal property --------------------------------------------------------------


def _random_monotone_map(rng, poset, target_space):
    """Seeded order-preserving assignment into the clopen algebra of a space."""
    size = len(target_space.points)
    univ = (1 << size) - 1
    images = [None] * poset.n
    for p in poset.linear_extension():
        floor = 0
        for below in iter_bits(poset.down[p] & ~(1 << p)):
            floor |= images[below]
        candidates = [m for m in range(univ + 1) if m & floor == floor]
        images[p] = candidates[rng.randrange(len(candidates))]
    return images


def suite_hom_laws(config):
    rec = _Recorder("hom-laws")
    rng = random.Random(config.seed)
    triples = 200
    for k in range(triples):
        t0 = rec.timed()
        n_src = rng.randrange(1, 5)
        n_tgt = rng.randrange(1, 4)
        source = random_poset(n_src, rng.choice((0.0, 0.3, 0.6)), rng.randrange(1 << 30))
        tgt_poset = random_poset(n_tgt, rng.choice((0.0, 0.5)), rng.randrange(1 << 30))
        tgt_space = stone.StoneSpace(tgt_poset)
        target = morphisms.MaskAlgebraTarget(len(tgt_space.points))
        images = _random_monotone_map(rng, source, tgt_space)
        hom = morphisms.extend_hom(source, target, images)
        witness = None
        cases = 0

        # generators map to their assigned images
        for p in range(source.n):
            cases += 1
            if hom.apply(algebra.gen(source, p)) != images[p]:
                witness = {"reason": "generator image", "p": source.names[p]}
                break

        # atom images partition the target unit
        if witness is None:
            atoms = hom.atom_image()
            total = 0
            for i, a in enumerate(atoms):
                total |= a
                for b in atoms[i + 1:]:
                    cases += 1
                    if a & b:
                        witness = {"reason": "atoms overlap"}
                        break
                if witness:
                    break
            if witness is None and total != target.one():
                witness = {"reason": "atoms do not cover"}

        # the two evaluation routes agree (uniqueness of the extension)
        if witness is None:
            src_space = hom.space()
            count = 1 << len(src_space.points)
            masks = (
                range(count) if count <= 256 else _sample_masks(rng, count, 120)
            )
            for m in masks:
                cases += 1
                e = stone.elem_from_clopen(src_space, m)
                if hom.apply(e) != hom.apply_via_atoms(e):
                    witness = {"reason": "route mismatch", "elem": m}
                    break

        # sampled pairs respect the operations
        if witness is None:
            src_space = hom.space()
            count = 1 << len(src_space.points)
            for _ in range(40):
                cases += 3
                m1, m2 = rng.randrange(count), rng.randrange(count)
                e1 = stone.elem_from_clopen(src_space, m1)
                e2 = stone.elem_from_clopen(src_space, m2)
                if hom.apply(algebra.meet(e1, e2)) != hom.apply(e1) & hom.apply(e2):
                    witness = {"reason": "meet law", "pair": [m1, m2]}
                    break
                if hom.apply(algebra.join(e1, e2)) != hom.apply(e1) | hom.apply(e2):
                    witness = {"reason": "join law", "pair": [m1, m2]}
                    break
                if hom.apply(algebra.complement(e1)) != target.complement(hom.apply(e1)):
                    witness = {"reason": "complement law", "elem": m1}
                    break

        rec.add(f"triple{k}", {"src": n_src, "tgt": n_tgt}, witness is None,
                witness, cases, (rec.timed() - t0) * 1000)
    return rec, {}


# -- 12. binary subbase -------------------------------------------------------------------------


def suite_binary_subbase(config):
    rec = _Recorder("binary-subbase")
    for label, poset in _corpus_for(config):
        if poset.n > 5:
            continue
        t0 = rec.timed()
        if poset.n <= 4:
            witness = stone.check_binary_subbase(poset)
            params = {"mode": "exhaustive"}
        else:
            witness = stone.check_binary_subbase(poset, samples=10000, seed=config.seed)
            params = {"mode": "sampled", "samples": 10000}
        rec.add(label, params, witness is None, witness, 1, (rec.timed() - t0) * 1000)
    return rec, {}


# -- 13. interval algebra -------------------------------------------------------------------------


def suite_interval_algebra(config):
    rec = _Recorder("interval-algebra")
    for n in range(1, 7):
        t0 = rec.timed()
        ok = stone.interval_algebra_check(chain(n))
        rec.add(f"chain{n}", {"n": n}, ok, None if ok else {"isomorphic": False},
                1, (rec.timed() - t0) * 1000)
    return rec, {}


# -- 14. lexicographic layering --------------------------------------------------------------------


def suite_lex_layering(config):
    rec = _Recorder("lex-layering")
    rng = random.Random(config.seed)
    sizes = [corpus.all_posets(n) for n in range(4)]
    for k in range(50):
        t0 = rec.timed()
        idx_n = rng.randrange(1, 4)
        index = rng.choice(sizes[idx_n])
        parts = []
        for _ in range(index.n):
            pn = rng.randrange(0, 4)
            parts.append(rng.choice(sizes[pn]))
        violation = morphisms.lex_layering_check(index, parts)
        rec.add(
            f"lex{k}",
            {"index": index.n, "parts": [p.n for p in parts]},
            violation is None,
            violation,
            1,
            (rec.timed() - t0) * 1000,
        )
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
