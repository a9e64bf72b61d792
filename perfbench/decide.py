"""``decide`` workload: a seeded stream of term queries, one caller, closed loop.

Each query runs text -> ``exprs.parse`` -> ``exprs.to_elem`` -> a decision
(``algebra.equals``, ``algebra.leq`` or ``algebra.canonical_key``).  Only the
decision path is timed.  Every timed pass must give the answers of the first,
and after the timed passes one more pass checks every answer against oracle
denotations built at set-up from ``stone.v_set`` and big-int set operations.

The median query is narrow (supports of 4-20 elements on the narrow pool) and
every twentieth query is wide (supports of 10-14 on ``antichain(15)``, up to
16k traces), so per-call overhead shows in ``p50_ms`` and per-trace throughput
in ``tail_ms``.  The set of queries is decided in passes until the time is
up; a query's latency is the median of its passes, each scaled by the speed
marks around it (``common.scales``).  Each pass rebuilds the pool, so
the per-poset up-set caches start cold in every pass and peak memory does not
grow with the run length.
"""

from __future__ import annotations

import random
import statistics
import time

from common import end_to_end, peak_rss_mb, scales, speed_mark

QUERIES = 600
WIDE_EVERY = 20
WIDE_SUPPORTS = (10, 11, 12, 13, 14)
NARROW_KINDS = ("eq_random", "eq_dneg", "eq_absorb", "leq", "normalize")
WIDE_KINDS = ("eq_random", "eq_absorb", "leq")
NARROW_POOL = ("rado6", "c4xc5", "rnd0.1", "rnd0.2", "rnd0.35")
WIDE_POOL = "anti15"
NORMALIZE_MAX_SUPPORT = 10
SETUP_REPEATS = 9
SPEED_EVERY = 20


def build_pool(P):
    """The fixed poset pool, as fresh instances with empty caches."""
    return {
        "rado6": P.rado_prefix(6),
        "c4xc5": P.product(P.chain(4), P.chain(5))[0],
        "rnd0.1": P.random_poset(20, 0.1, 101),
        "rnd0.2": P.random_poset(20, 0.2, 102),
        "rnd0.35": P.random_poset(20, 0.35, 103),
        "anti15": P.antichain(15),
    }


# -- term generation -------------------------------------------------------------


def _tree(rng, leaves, balanced):
    """Random binary term using each leaf once, with scattered complements.

    A balanced term splits its leaves in halves; otherwise the split point is
    uniform, which gives anything from balanced trees to chains.
    """
    if len(leaves) == 1:
        node = ("var", leaves[0])
    else:
        k = len(leaves) // 2 if balanced else rng.randint(1, len(leaves) - 1)
        op = "and" if rng.random() < 0.5 else "or"
        node = (op, _tree(rng, leaves[:k], balanced), _tree(rng, leaves[k:], balanced))
    if rng.random() < 0.2:
        node = ("not", node)
    return node


def _term(rng, names, balanced):
    leaves = list(names)
    rng.shuffle(leaves)
    return _tree(rng, leaves, balanced)


def _double_negate(rng, node):
    """Same term with one random subterm wrapped in a double complement."""
    if node[0] == "var" or rng.random() < 0.3:
        return ("not", ("not", node))
    if node[0] == "not":
        return ("not", _double_negate(rng, node[1]))
    if rng.random() < 0.5:
        return (node[0], _double_negate(rng, node[1]), node[2])
    return (node[0], node[1], _double_negate(rng, node[2]))


def render(node):
    kind = node[0]
    if kind == "var":
        return f"x({node[1]})"
    if kind == "not":
        return "!" + render(node[1])
    sym = " & " if kind == "and" else " | "
    return "(" + render(node[1]) + sym + render(node[2]) + ")"


def make_query(rng, kind, pname, picked, balanced=False):
    """One query: (kind, poset name, terms) over the elements ``picked``, whose
    number is the union support.  ``rng`` draws the shape of the terms.

    ``balanced`` queries have balanced terms whose supports depend only on
    the union support.
    """
    size = len(picked)

    def term(leaves):
        return _term(rng, leaves, balanced)

    if kind == "eq_random":
        k = size if balanced else rng.randint(max(1, size // 2), size)
        a = term(picked[:k])
        b = term(rng.sample(picked, k) if rng.random() < 0.5 else picked[size - k :])
        return kind, pname, (a, b)
    if kind == "eq_dneg":
        a = term(picked)
        return kind, pname, (a, _double_negate(rng, a))
    if kind == "eq_absorb":
        a = term(picked[:-1])
        return kind, pname, (("or", a, ("and", a, ("var", picked[-1]))), a)
    if kind == "leq":
        k = size if balanced else rng.randint(max(1, size // 2), size)
        a = term(picked[:k])
        b = term(picked[size - k :] if k < size else picked[: size // 2])
        pair = (("and", a, b), a)
        # half the queries ask the converse, which usually does not hold
        return kind, pname, pair if rng.random() < 0.5 else pair[::-1]
    if kind == "normalize":
        k = rng.randint(2, size - 1)
        a = term(picked[:k])
        c = term(picked[k:])
        return kind, pname, (("or", a, ("and", a, c)),)
    raise ValueError(kind)


def make_queries(seed, pool, count):
    """Seeded query stream.

    The seed picks the elements of each query.  Its kind, poset, union
    support and the shape of its terms follow from its index alone, so the
    mix is stratified and the cost of the stream depends little on the
    seed.  On the antichain of the wide tier every choice of elements is an
    automorphism, so the wide queries, which make the tail, cost the same
    on every seed.
    """
    rng = random.Random(seed)
    names = {k: list(p.names) for k, p in pool.items()}
    out = []
    wide = narrow = 0
    for i in range(count):
        shape = random.Random(i)
        if i % WIDE_EVERY == WIDE_EVERY - 1:
            kind = WIDE_KINDS[wide % len(WIDE_KINDS)]
            size = WIDE_SUPPORTS[wide % len(WIDE_SUPPORTS)]
            wide += 1
            picked = rng.sample(names[WIDE_POOL], size)
            out.append(make_query(shape, kind, WIDE_POOL, picked, balanced=True))
            continue
        kind = NARROW_KINDS[narrow % len(NARROW_KINDS)]
        pname = NARROW_POOL[narrow // len(NARROW_KINDS) % len(NARROW_POOL)]
        top = NORMALIZE_MAX_SUPPORT if kind == "normalize" else min(20, len(names[pname]))
        size = 4 + narrow // (len(NARROW_KINDS) * len(NARROW_POOL)) % (top - 3)
        narrow += 1
        out.append(make_query(shape, kind, pname, rng.sample(names[pname], size)))
    return out


# -- oracle ------------------------------------------------------------------------


class Oracle:
    """Final-segment denotations of one poset: clopens as big-int masks."""

    def __init__(self, stone, poset):
        self.space = stone.StoneSpace(poset)
        self.full = self.space.full
        self.vsets = {name: stone.v_set(self.space, name) for name in poset.names}

    def denote(self, node):
        kind = node[0]
        if kind == "var":
            return self.vsets[node[1]]
        if kind == "not":
            return self.full ^ self.denote(node[1])
        a, b = self.denote(node[1]), self.denote(node[2])
        return a & b if kind == "and" else a | b

    def denote_elem(self, e):
        """Clopen of an algebra element, by evaluating it at every point.

        Unlike ``stone.denote_elem`` this accepts an element over another
        instance of the same poset, so the measured pool's caches stay cold.
        """
        mask = 0
        for k, seg in enumerate(self.space.points):
            if e.eval_segment(seg):
                mask |= 1 << k
        return mask

    def expected(self, kind, terms):
        dens = [self.denote(t) for t in terms]
        if kind == "leq":
            return dens, dens[0] & ~dens[1] == 0
        if kind == "normalize":
            return dens, None
        return dens, dens[0] == dens[1]


def setup(program, seed):
    """Returns (queries, oracles).

    A query is (kind, pool name, term texts, oracle denotations of the terms,
    expected verdict); the oracles are per pool poset.
    """
    P, stone = program.poset, program.stone
    pool = build_pool(P)
    oracles = {name: Oracle(stone, p) for name, p in pool.items()}
    queries = []
    for kind, pname, terms in make_queries(seed, pool, QUERIES):
        dens, verdict = oracles[pname].expected(kind, terms)
        queries.append((kind, pname, tuple(render(t) for t in terms), dens, verdict))
    return queries, oracles


# -- the measured loop -------------------------------------------------------------


def _check(algebra, oracle, kind, elems, dens, verdict, got):
    if kind == "normalize":
        (e,) = elems
        r = algebra.support_reduce(e)
        return got == (r.support, r.truth) and oracle.denote_elem(r) == dens[0]
    if got != verdict:
        return False
    if kind != "leq" and verdict:
        return algebra.canonical_key(elems[0]) == algebra.canonical_key(elems[1])
    return True


def run_pass(program, queries, oracles=None, reference=None, tracer=None, marks=None):
    """Decide every query once on a fresh pool.

    Returns (latencies, results, failures); a failed query has latency None
    and its error as result.  Results are checked against the oracle when
    ``oracles`` is given, and must equal ``reference`` (the results of an
    earlier pass) when that is given.  With a ``tracer``, only the decision
    path of each query is traced, with the query's index as request id.  With
    a list of ``marks``, a speed mark is appended before every SPEED_EVERY-th
    query and after the last.
    """
    algebra, exprs = program.algebra, program.exprs
    if tracer:
        tracer.pause()
        tracer.new_pass()
    pool = build_pool(program.poset)
    latencies, results = [], []
    failures = 0
    perf = time.perf_counter
    for i, (kind, pname, texts, dens, verdict) in enumerate(queries):
        if marks is not None and i % SPEED_EVERY == 0:
            marks.append(speed_mark())
        p = pool[pname]
        if tracer:
            tracer.request = i
            tracer.resume()
        try:
            t0 = perf()
            elems = [exprs.to_elem(p, exprs.parse(t)) for t in texts]
            if kind == "leq":
                got = algebra.leq(elems[0], elems[1])
            elif kind == "normalize":
                got = algebra.canonical_key(elems[0])
            else:
                got = algebra.equals(elems[0], elems[1])
            lat = perf() - t0
        except Exception as exc:  # a raising query is a failed operation, not a crash
            if tracer:
                tracer.pause()
            failures += 1
            latencies.append(None)
            results.append(repr(exc))
            continue
        if tracer:
            tracer.pause()
        ok = reference is None or got == reference[i]
        if oracles is not None:
            ok = ok and _check(algebra, oracles[pname], kind, elems, dens, verdict, got)
        failures += not ok
        latencies.append(lat)
        results.append(got)
    if marks is not None:
        marks.append(speed_mark())
    if tracer:
        tracer.request = -1
        tracer.resume()
    return latencies, results, failures


def timed_setup(program, seed):
    """Returns (scaled seconds, seconds, (queries, oracles)) of one set-up."""
    before = speed_mark()
    t0 = time.perf_counter()
    out = setup(program, seed)
    sec = time.perf_counter() - t0
    return sec * scales([before, speed_mark()])[0], sec, out


def run(program, seed, seconds):
    scaled_setup, raw_setup, (queries, oracles) = timed_setup(program, seed)
    setups, raw_setups = [scaled_setup], [raw_setup]
    # every timed pass must give the answers of the first one
    reference = None
    failures = 0
    raw = [[] for _ in queries]
    scaled = [[] for _ in queries]
    passes = 0
    t_start = time.perf_counter()
    while passes == 0 or time.perf_counter() - t_start < seconds:
        # the set-up repeats are spread over the run, like the passes
        if len(setups) < SETUP_REPEATS * (time.perf_counter() - t_start) / seconds:
            scaled_setup, raw_setup, again = timed_setup(program, seed)
            setups.append(scaled_setup)
            raw_setups.append(raw_setup)
            failures += again[0] != queries
        marks = []
        lats, results, fail = run_pass(program, queries, reference=reference, marks=marks)
        reference = reference or results
        failures += fail
        passes += 1
        factors = scales(marks)
        for i, lat in enumerate(lats):
            if lat is not None:
                raw[i].append(lat)
                scaled[i].append(lat * factors[i // SPEED_EVERY])
    peak = peak_rss_mb()
    # The oracle check comes after the timed passes, so the memory it takes
    # stays out of peak_rss_mb.  It must also reproduce the timed answers.
    failures += run_pass(program, queries, oracles, reference)[2]
    # one sample per distinct query: the median of its scaled passes
    samples = [statistics.median(xs) for xs in scaled if xs]
    raw_samples = [statistics.median(xs) for xs in raw if xs]
    errors = sorted({r for r in reference if isinstance(r, str)})
    metrics, detail = end_to_end(setups, samples, raw_setups, raw_samples, peak)
    detail.update(
        timed_passes=passes,
        setups_s=raw_setups,
        distinct_queries=len(queries),
        errors=errors[:5],
    )
    return (passes + 1) * len(queries), failures, metrics, detail
