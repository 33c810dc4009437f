"""From-scratch NSGA-II engine for the production-distribution network.

The genotype is a real vector in [0,1]^(J*I): one allocation weight per
DC-retailer pair, J per retailer.  Decoding turns the weights into the
cases each retailer gets from each DC, so every decoded plan meets demand
exactly by construction.  Production and raw material are not searched for:
given the shipments, the decoder fills the plant-DC arcs in route-cost order
c_kj + h_j (a greedy flow decode, as in Gen, Altiparmak & Lin, OR Spectrum
28, 2006) and buys what each plant's production needs from the cheapest
suppliers first.  Every plant has one room D_k/u, which the arcs out of it
share.  In aggregate mode any DC may ship any case and every plan ships the
total demand, so the fill runs once per instance: each plant on its
cheapest route, up to its room.  In strict per-DC mode it covers each DC's
shipments on the arcs into it, DCs in index order, each taking from what
the DCs before it left of the plants' room.

Decoding reads a row only through its plan index (``_plan_index``): each
retailer's favourite DC, its highest weight, in aggregate mode, and its DCs
in weight order in strict per-DC mode.  From the index it sends each
retailer's demand whole to its favourite DC; in strict per-DC mode, where
that would overflow a DC, retailers fill DCs in weight order up to each
one's room.  This is the greedy key-to-flow decoding of Gen, Altiparmak &
Lin applied to the allocation weights.  Decoded plans sit on the boundary
where the optimum lies, and the genes stay continuous and are never
rewritten, so crossover and mutation can move a retailer to another DC by
changing which of its weights is highest.

The engine minimizes one objective, the network's total cost, and reports
the cheapest plan ever seen: survival is elitist and orders the union by
cost, so that plan is always the population's first.  ``solve`` first reads
``oracle.lower_bound``, which raises OracleError naming the total that falls
short when no plan is feasible.  Past that check every decoded plan is
feasible: shipments meet demand, a strict-mode retailer spills past a DC's
room only when the DCs' total room is short, the fill covers every DC while
any plant has room, and raw material is bought up to the suppliers' total.
So pricing checks that each row meets the constraints rather than ranking
how far it misses them.  A plan has one price, the total ``network`` gives
it: ranking, the best plan, the trace, the stall test and the result all
read the same number.  Every population, the initial one included, is
stored in survival order, so the tournament compares two indices.

A run ends at max_generations or on a stall: the best price gained too
little over the last stall_generations generations.  A run whose best price,
the initial population's included, reaches ``oracle.lower_bound``, the
aggregate-mode optimum, ends as a stall at once, when the stall window still
fits in the budget: no plan of either mode improves on it, so the window
would close on the same plan (branch and bound's pruning rule).

A generation does only the work that depends on it.  What depends on the
instance alone (the arcs in route-cost order and their room, the suppliers
in price order and their running capacity, the aggregate-mode production and
raw purchase, the lower bound) is built on first use and kept with the
instance.  A decoded plan is a function of its plan key, the packed plan
index, because decoding reads nothing else of a row.  The population
collapses onto a few plans, so a solve keeps a dict from each child's plan
key to its column in one cost array, made at the first key with room for
all the dict can hold.  It decodes and evaluates, in one batch, only the
children whose key is new, and gathers every child's cost from its column;
a row's price does not depend on its batch, so the run is the same bit for
bit.  The dict lives for one solve, from generation 1 on, and is cleared
whenever its keys pass PLAN_CACHE_BYTES.  The best plan is decoded and
priced once, after the run; the final front is returned as population rows.
Survival ranks the parent+offspring union by cost alone, and a collapsed
population repeats its unions, so a solve also keeps a dict from each
union's costs to its survivors' indices, their read-only cost and their mean
cost, cleared by the same rule; a repeated union costs one gather of genes.
With one objective the fronts of Pareto domination are the distinct costs in
order, and a front's points are identical.  Every crowding span is then 0,
so crowding is +inf at each front's first and last point and 0 between, as
the sweep (``_front_ranks``) and the crowding pass (``_crowding``) give it
on the pairs (cost, 0), bit for bit; ``_rank_and_crowd`` computes that
closed form.
Variation draws random numbers only where they are used: spread factors for
the pairs that cross, and the mutation sites as geometric gaps between
successive mutated genes, which is an exact per-gene Bernoulli(p_m) draw.
The draws of DRAW_BLOCK generations are made at once, in the order each
generation would make them, and what follows from them alone (tournament
winners, spread factors, mutation deltas) is computed once per block.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .network import (
    DimensionMismatchError,
    FlowPlan,
    NetworkInstance,
    batch_evaluate,
    evaluate_cost,
)
from .oracle import ROUNDING, lower_bound


SBX_ETA = 15.0  # distribution index of simulated binary crossover
PM_ETA = 20.0  # distribution index of polynomial mutation
STALL_TOLERANCE = 1e-6  # relative gain in best cost below which a generation window counts as a stall
# Key bytes a solve's plan cache, or its dict of rankings, may hold; once they pass this it is cleared.
# A plan entry also holds about 125 bytes of Python objects and its cost, so a cache of 20-byte keys stays
# below about 30 MB; a ranking's 800-byte key (population 50) holds about 1.7 kB more, about 13 MB in all.
PLAN_CACHE_BYTES = 1 << 22
# Generations whose random draws are made at once, never past the budget.  A generation's RNG calls
# keep their order, so runs do not depend on it; draws made for generations after a stall are wasted.
DRAW_BLOCK = 16


@dataclass(frozen=True)
class SolverConfig:
    population_size: int = 50
    crossover_prob: float = 0.6
    mutation_prob: float = 0.001
    max_generations: int = 200
    stall_generations: int = 50
    seed: int = 0

    def __post_init__(self):
        for name in ("population_size", "max_generations", "stall_generations", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.population_size < 4 or self.population_size % 2:
            raise ValueError("population_size must be even and >= 4")
        for name in ("crossover_prob", "mutation_prob"):
            p = getattr(self, name)
            if isinstance(p, bool) or not isinstance(p, (int, float, np.integer, np.floating)):
                raise ValueError(f"{name} must be a number, got {p!r}")
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        for name in ("max_generations", "stall_generations"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class Population:
    """Generation state as stacked arrays: genes (N,L) and cost (N,); ``mean_cost``, the trace's, is set by survival."""

    genes: np.ndarray
    cost: np.ndarray
    mean_cost: Optional[float] = None

    def __len__(self):
        return self.genes.shape[0]


@dataclass
class GenerationRecord:
    generation: int
    best_feasible_cost: float
    mean_cost: float


@dataclass
class SolveResult:
    best_feasible: tuple  # (FlowPlan, CostBreakdown)
    final_front: Population  # the last population's rows at its first, cheapest, cost, in survival order
    trace: list  # GenerationRecord per generation
    generations_run: int
    terminated_by: str  # "max-generations" | "stall": window closed or best price at the bound, generation 0 included


# ---------------------------------------------------------------------------
# Genotype <-> phenotype
# ---------------------------------------------------------------------------

def _greedy_fill(room: np.ndarray, need: np.ndarray, out=None) -> np.ndarray:
    """Amounts taken from the slots of ``room`` (..., M), first slot first, to cover ``need`` (...)."""
    before = np.zeros(room.shape)  # the room of the slots before each, an exact running sum
    np.add.accumulate(room[..., :-1], axis=-1, out=before[..., 1:])
    return np.minimum(room, np.maximum(np.asarray(need)[..., None] - before, 0.0), out=out)


class _Codec:
    """Per-instance constants of decoding, built once per instance.

    ``room`` (K,) is each plant's room D_k/u, which every group of arcs takes
    from.  ``arcs`` (G, K) lists flat plant-DC arc indices k*J + j in groups,
    one arc per plant, each group cheapest route c_kj + h_j first, and
    ``plants`` (G, K) their plants.  In aggregate mode the one group holds
    each plant's cheapest route, and every decoded plan ships the total
    demand, so one ``production`` (K, J) and its ``raw`` purchase (S, K)
    serve every plan.  In strict per-DC mode group j holds the arcs into DC j.
    """

    def __init__(self, instance: NetworkInstance):
        _, k, j, _ = instance.counts
        self.utilization = instance.utilization
        self.strict = instance.strict_per_dc
        self.shape = (k, j)
        cheapest = np.argsort(instance.raw_unit_cost, kind="stable")
        self.supplier_rank = np.argsort(cheapest)  # position of each supplier in that order
        self.supplied = np.concatenate([[0.0], np.cumsum(instance.supplier_capacity[cheapest])])  # (S+1,)
        route = instance.plant_dc_unit_cost + instance.holding_unit_cost[None, :]  # (K, J)
        self.room = instance.plant_capacity / instance.utilization
        if self.strict:
            self.plants = np.argsort(route, axis=0, kind="stable").T  # (J, K)
            self.arcs = self.plants * j + np.arange(j)[:, None]
        else:
            arc = route.argmin(axis=1)  # each plant's cheapest route, the first on a tie
            self.plants = np.argsort(route[np.arange(k), arc], kind="stable")[None]
            self.arcs = self.plants * j + arc[self.plants]
            need = np.full((1, 1), instance.demand.sum())
            self.production = self.fill(need, need[:, 0])[0]
            self.raw = self.raw_fill(self.production.sum(axis=1)[None])[0]
        for a in vars(self).values():
            if isinstance(a, np.ndarray):
                a.setflags(write=False)
        self.tiles = ()  # aggregate mode: raw (N,S,K) and production (N,K,J), repeated over the most rows decoded yet

    def fill(self, need: np.ndarray, total: np.ndarray) -> np.ndarray:
        """The production (n, K, J) whose arrivals cover ``need`` (n, G) per group and ``total`` (n,).

        The groups, in order, fill their arcs from zero, each arc up to the
        room its plant has left.  Rounding can leave the arrivals, added as
        ``network`` adds them, a few ulps short; a group's target then rises
        until its arrivals cover its need and, once every group of the row
        does, the row's arrivals cover ``total``, or until the row's plants
        are full.  So a plan never leans on the production-vs-shipment tolerance.
        """
        n = need.shape[0]
        p = np.zeros((n, *self.shape))
        target = need
        while True:
            left = np.repeat(self.room[None], n, axis=0)  # (n, K)
            for plants, arcs, aim in zip(self.plants, self.arcs, target.T):
                room = left[:, plants]
                p.reshape(n, -1)[:, arcs] = take = _greedy_fill(room, aim)
                left[:, plants] = room - take
            arrivals = np.einsum("nkj->nj", p)
            arrived = arrivals.sum(axis=1)
            gap = need - (arrivals if self.strict else arrived[:, None])  # (n, G), > 0 where short
            covered = (gap <= 0).all(axis=1)
            gap = np.where(covered[:, None] & (need > 0), (total - arrived)[:, None], gap)
            short = (gap > 0) & (left > 0).any(axis=1)[:, None]
            if not short.any():
                return p
            target = np.where(short, np.maximum(target + gap, np.nextafter(target, np.inf)), target)

    def raw_fill(self, production: np.ndarray) -> np.ndarray:
        """Raw flows (n,S,K) covering u x each plant's production (n,K), cheapest supplier first.

        Raw cost depends only on the supplier, so this is the cheapest raw
        plan for the given production.  Plants are served in index order;
        once the suppliers run dry the rest stays uncovered.
        """
        need = self.utilization * production  # (n, K)
        need_before = np.cumsum(need, axis=1) - need
        # covered[:, q, k]: how much of plant k's need the q cheapest suppliers cover
        covered = self.supplied[None, :, None] - need_before[:, None, :]
        covered = np.minimum(np.maximum(covered, 0.0), need[:, None, :])
        return np.diff(covered, axis=1)[:, self.supplier_rank]


def _codec(instance: NetworkInstance) -> _Codec:
    return instance.derived(_Codec)


def decode_batch(genes: np.ndarray, instance: NetworkInstance):
    """Decode gene rows (n, I*J) into stacked flows r:(n,S,K), p:(n,K,J), t:(n,J,I).

    A row holds J allocation weights per retailer, and decoding reads them
    only through their plan index (``_plan_index``): the shipments are the
    cases ``_shipments`` sends from it, so each retailer goes whole to its
    highest-weight DC unless a strict-mode DC overflows.  Production is the
    cheapest that covers the shipments (``_Codec.fill``), and raw material is
    bought for u x each plant's production, cheapest supplier first, up to
    supplier capacity.  In aggregate mode that is one read-only plan per
    instance, repeated over the rows.  In strict per-DC mode it is filled per
    row, DC by DC in index order, from the plant room the DCs before left.
    """
    n = genes.shape[0]
    if genes.shape[1] != instance.num_genes:
        raise DimensionMismatchError(f"chromosome length {genes.shape[1]}, expected {instance.num_genes}")
    codec = _codec(instance)
    t = np.ascontiguousarray(_shipments(_plan_index(genes, instance), instance).transpose(0, 2, 1))
    if not instance.strict_per_dc:
        if not codec.tiles or len(codec.tiles[0]) < n:  # one read-only C-ordered tile, sliced
            codec.tiles = tuple(np.repeat(a[None], n, axis=0) for a in (codec.raw, codec.production))
            for a in codec.tiles:
                a.setflags(write=False)
        return (*(a[:n] for a in codec.tiles), t)
    p = codec.fill(np.einsum("nji->nj", t), np.einsum("nji->ni", t).sum(axis=1))
    return codec.raw_fill(np.einsum("nkj->nk", p)), p, t


def _plan_index(genes: np.ndarray, instance: NetworkInstance) -> np.ndarray:
    """All that decoding reads of gene rows (n, I*J), and the only code that reads them.

    Each retailer's favourite DC (n, I), its first highest weight, in aggregate mode; its DCs in
    weight order (n, I, J), ties in index order, in strict per-DC mode.
    """
    w = genes.reshape(len(genes), instance.num_retailers, instance.num_dcs)
    return np.argsort(-w, axis=2, kind="stable") if instance.strict_per_dc else w.argmax(axis=2)


def _shipments(index: np.ndarray, instance: NetworkInstance) -> np.ndarray:
    """Cases (n,I,J) each retailer gets from each DC, from the plan index ``_plan_index`` gives.

    Each retailer goes whole to its favourite DC.  In strict per-DC mode,
    rows where that would overload a DC are filled instead: the retailers,
    first to last, fill DCs in weight order up to the capacity left in
    each; a retailer that finds every DC full puts the rest on its
    favourite DC.

    Until a row's first overflow every retailer takes its favourite DC
    whole, so those retailers are assigned at once.  A running sum from each
    DC's room gives the room they leave: it makes the sequential fill's
    subtractions in the same order, so it has the same bits, and the fill
    gives a retailer its favourite whole exactly when the demand is at most
    the room there.  The fill goes retailer by retailer only from the
    earliest overflow in any row on.
    """
    favourite = index[..., 0] if instance.strict_per_dc else index
    n, i = favourite.shape
    demand = instance.demand
    sent = np.zeros((n, i, instance.num_dcs))
    sent[np.arange(n)[:, None], np.arange(i), favourite] = demand
    if not instance.strict_per_dc:
        return sent
    capacity = instance.dc_capacity
    over = np.flatnonzero((np.einsum("nij->nj", sent) > capacity).any(axis=1))
    if over.size == 0:
        return sent
    m, j = over.size, capacity.size
    # room[:, r]: what each DC has left for retailer r if all before it took their favourite whole
    room = np.cumsum(np.concatenate([np.broadcast_to(capacity, (m, 1, j)), -sent[over]], axis=1), axis=1)
    fits = demand <= room[np.arange(m)[:, None], np.arange(i), favourite[over]]
    overflows = np.flatnonzero(~fits.all(axis=0))
    if overflows.size == 0:
        return sent
    start = overflows[0]
    order = index[over, start:]  # DCs in weight order
    at = np.arange(m)[:, None, None] * j + order  # flat index into room of each DC in weight order
    room = room[:, start].ravel()
    rest = demand[start:]
    taken = np.empty((m, i - start, j))  # cases in weight order
    for f, d in enumerate(rest):
        left = room[at[:, f]]
        take = _greedy_fill(left, d, out=taken[:, f, :])
        take[:, 0] += np.maximum(d - take.sum(axis=1), 0.0)
        room[at[:, f]] = np.maximum(left - take, 0.0)
    np.minimum(taken, rest[:, None], out=taken)  # a spill onto a full DC can round above the demand
    sent[over[:, None, None], np.arange(start, i)[:, None], order] = taken
    return sent


def _plan_keys(genes: np.ndarray, instance: NetworkInstance) -> list:
    """One bytes key per gene row (n, I*J): its plan index in the smallest unsigned dtype that holds J - 1.

    Decoding reads a row only through ``_plan_index``, so rows with equal
    keys decode to the same flows, bit for bit, and have one price.
    """
    packed = _plan_index(genes, instance).astype(np.min_scalar_type(instance.num_dcs - 1)).reshape(len(genes), -1)
    return packed.view(np.dtype((np.void, packed.shape[1] * packed.itemsize))).ravel().tolist()


def _price(genes: np.ndarray, instance: NetworkInstance) -> np.ndarray:
    """Cost (n,) of gene rows (n, I*J), decoded and evaluated in one batch.

    ``solve`` prices rows only on an instance whose totals carry the demand,
    where every decoded plan is feasible (the module docstring says why), so
    a row that breaks a constraint is a fault of the decoder: RuntimeError.
    """
    cost, violation = batch_evaluate(instance, *decode_batch(genes, instance))
    if violation.any():
        raise RuntimeError(f"a decoded plan breaks the constraints by {violation.max():.6g}")
    return cost


class _PlanCache(dict):
    """Plan key -> its column in ``prices`` (capacity,), the cost of its plan, numbered as the keys came."""

    prices = np.empty(0)  # until _price_rows makes a solve's own at its first key


def _price_rows(genes: np.ndarray, instance: NetworkInstance, cache: _PlanCache) -> np.ndarray:
    """Cost (n,) of the gene rows, decoding and evaluating only the rows whose plan key is new.

    The new keys' first rows are priced in one batch, and every row's price is
    gathered from ``cache.prices``; a row's price does not depend on its
    batch, so each row gets the bits it would get priced alone.  Once the
    keys held pass ``PLAN_CACHE_BYTES`` the cache is cleared, so it holds at
    most ``PLAN_CACHE_BYTES // key bytes + rows``, the room made at its first
    key (less for keys of a byte or two; pages no key reaches stay untouched).
    """
    keys = _plan_keys(genes, instance)
    held = len(cache)
    columns = [cache.setdefault(key, len(cache)) for key in keys]  # a new key takes the next column
    if len(cache) > held:
        first = []
        for row, column in enumerate(columns):
            if column == held + len(first):  # the new keys first appear in column order
                first.append(row)
        if not cache.prices.size:  # a k-byte key takes at most 256**k values
            cache.prices = np.empty(min(PLAN_CACHE_BYTES // len(keys[0]), 256 ** len(keys[0])) + len(keys))
        cache.prices[held : len(cache)] = _price(genes[first], instance)
    cost = cache.prices[columns]
    if len(cache) * len(keys[0]) > PLAN_CACHE_BYTES:
        cache.clear()
    return cost


def decode(chromosome: np.ndarray, instance: NetworkInstance) -> FlowPlan:
    chromosome = np.asarray(chromosome, dtype=np.float64)
    r, p, t = decode_batch(chromosome[None, :], instance)
    return FlowPlan(r[0], p[0], t[0])


def init_population(instance: NetworkInstance, config: SolverConfig, rng) -> Population:
    """Uniform random genes on [0,1], priced, ranked and stored in survival order."""
    genes = rng.random((config.population_size, instance.num_genes))
    cost = _price(genes, instance)
    _, _, order = _rank_and_crowd(cost)
    return Population(genes=genes[order], cost=cost[order])


# ---------------------------------------------------------------------------
# Variation operators
# ---------------------------------------------------------------------------

def _mutation_sites(size: int, prob: float, rng) -> np.ndarray:
    """Sorted indices below ``size``, each drawn independently with probability ``prob``.

    The gaps between successive successes of Bernoulli(prob) trials are
    geometric, so about size * prob numbers are drawn instead of size.
    """
    if prob <= 0.0 or size == 0:
        return np.empty(0, dtype=np.int64)
    batch = int(size * prob + 4.0 * np.sqrt(size * prob)) + 1
    # a gap clipped to size + 1 still ends past the last index, and the sums cannot overflow
    sites = np.cumsum(np.minimum(rng.geometric(prob, batch), size + 1)) - 1
    while sites[-1] < size:
        more = sites[-1] + np.cumsum(np.minimum(rng.geometric(prob, batch), size + 1))
        sites = np.concatenate([sites, more])
    return sites[: np.searchsorted(sites, size)]


def _variation_draws(n: int, length: int, config: SolverConfig, rng):
    """Yield each generation's ``_make_offspring`` arguments after the genes, for ``n`` rows of ``length`` genes.

    A generation calls the RNG in a fixed order: tournament pairs, one
    number per pair of the pool, a number per gene of the pairs that cross
    (those whose number is below crossover_prob), mutation sites, a number
    per site.  The calls of up to DRAW_BLOCK generations, never more than
    max_generations in all, are made in turn, and what follows from them
    alone (tournament winners, spread factors, mutation deltas) is computed
    once for the block.
    """
    expm = 1.0 / (PM_ETA + 1.0)
    left = config.max_generations
    while left:
        gens = min(DRAW_BLOCK, left)
        left -= gens
        pairs, fire, u, sites, um = [], [], [], [], []
        for _ in range(gens):
            pairs.append(rng.integers(0, n, size=(n, 2)))
            fire.append((rng.random(n // 2) < config.crossover_prob).nonzero()[0])
            u.append(rng.random((fire[-1].size, length)))
            sites.append(_mutation_sites(n * length, config.mutation_prob, rng))
            um.append(rng.random(sites[-1].size))
        mating = _tournament_indices(np.array(pairs))
        u, um = np.concatenate(u), np.concatenate(um)
        # beta is x^(1/(eta+1)) for x = 2u, and (1/x)^(1/(eta+1)) for x = 2(1 - u) above 0.5, where
        # 1 - u is exact.  With x negated above 0.5, max(y, -1/y) picks x or 1/x without a branch.
        y = np.copysign(2.0 * np.minimum(u, 1.0 - u), 0.5 - u)
        beta = np.power(np.maximum(y, -1.0 / y), 1.0 / (SBX_ETA + 1.0))
        spread = np.empty((len(u), 2, length))  # [1 + beta, 1 - beta] per fired pair and gene
        np.add(1.0, beta, out=spread[:, 0])
        np.subtract(1.0, beta, out=spread[:, 1])
        delta = np.where(um < 0.5, (2.0 * um) ** expm - 1.0, 1.0 - (2.0 * (1.0 - um)) ** expm)
        a = b = 0  # the generation's first fired pair and first site in the block
        for g in range(gens):
            c, d = a + fire[g].size, b + sites[g].size
            yield mating[g], fire[g], spread[a:c], sites[g], delta[b:d]
            a, b = c, d


def _make_offspring(genes, mating, fire, spread, sites, delta) -> np.ndarray:
    """Crossover + mutation of the mating pool ``genes[mating]`` in one batch, from one generation's draws.

    Pairs are consecutive rows of the pool.  The pairs ``fire`` cross by
    simulated binary crossover: with ``spread`` [1 + beta, 1 - beta] per
    gene, child 0 is ((1 + beta) a + (1 - beta) b) / 2 and child 1 the
    mirror image.  Then the flat gene ``sites`` move by ``delta``
    (polynomial mutation).  Genes stay clamped to [0,1].
    """
    children = genes[mating]
    length = children.shape[1]
    if fire.size:
        pairs = children.reshape(-1, 2, length)[fire]  # (fired pairs, 2, L): parents a, b
        mixed = spread * pairs[:, :1]
        mixed += spread[:, ::-1] * pairs[:, 1:]
        mixed *= 0.5
        children.reshape(-1, 2, length)[fire] = np.minimum(np.maximum(mixed, 0.0, out=mixed), 1.0, out=mixed)
    if sites.size:
        flat = children.reshape(-1)  # a view: children is a fresh contiguous gather
        flat[sites] = np.minimum(np.maximum(flat[sites] + delta, 0.0), 1.0)
    return children


# ---------------------------------------------------------------------------
# Ranking machinery
# ---------------------------------------------------------------------------

def _front_ranks(cost: np.ndarray, violation: np.ndarray) -> np.ndarray:
    """Pareto front index of each point (0 = non-dominated) by one sweep.

    Jensen's bi-objective sort: visit the points in (cost, violation) order;
    an earlier distinct point dominates a later one iff its violation is no
    larger.  The smallest violation of each front so far is non-decreasing
    from front to front, so a binary search over those tails finds the
    first front with no dominating member.  Identical points share a front.
    """
    order = np.lexsort((violation, cost))
    tails = []
    ranks = []
    prev = None
    for point in zip(cost[order].tolist(), violation[order].tolist()):
        if point != prev:
            r = bisect_right(tails, point[1])
            if r == len(tails):
                tails.append(point[1])
            else:
                tails[r] = point[1]
            prev = point
        ranks.append(r)
    out = np.empty(order.size, dtype=np.int64)
    out[order] = ranks
    return out


def _crowding(ranks: np.ndarray, objectives) -> np.ndarray:
    """Deb-style crowding of every point within its front, all fronts in one pass per objective.

    ``objectives`` holds M columns (n,), one per objective.  Per objective, the
    points are sorted by (front, value, index); each front's first and last
    points get +inf and its interior points add the gap between their
    neighbours over the front's span.
    """
    n = ranks.size
    dist = np.zeros(n)
    size = np.bincount(ranks)  # fronts are numbered 0, 1, ..., and the sorts put them in that order
    last = np.cumsum(size) - 1
    first = last - (size - 1)
    ends = np.concatenate((first, last))
    for col in objectives:
        order = np.lexsort((col, ranks))  # stable, so ties stay in index order
        value = col[order]
        span = np.repeat(value[last] - value[first], size)
        gap = np.zeros(n)
        np.subtract(value[2:], value[:-2], out=gap[1:-1])
        dist[order] += np.divide(gap, span, out=np.zeros(n), where=span > 0)
        dist[order[ends]] = np.inf
    return dist


def _rank_and_crowd(cost: np.ndarray):
    """(ranks, crowding, survivor order) of the costs, in the closed form the module docstring derives.

    The survivor order lists indices by (rank asc, crowding desc, index asc);
    truncating it at N implements elitist survival.
    """
    by_cost = np.argsort(cost, kind="stable")
    value = cost[by_cost]
    starts = np.ones(cost.size + 1, dtype=bool)  # where a front starts in cost order, and past the end
    np.not_equal(value[1:], value[:-1], out=starts[1:-1])
    ranks = np.empty(cost.size, dtype=np.int64)
    ranks[by_cost] = np.cumsum(starts[:-1]) - 1
    crowd = np.zeros(cost.size)
    crowd[by_cost[starts[:-1] | starts[1:]]] = np.inf
    order = np.lexsort((-crowd, ranks))  # stable, so ties stay in index order
    return ranks, crowd, order


def select_next_generation(
    parents: Population, offspring: Population, config: SolverConfig, rankings: Optional[dict] = None
) -> Population:
    """Elitist survival from the parent+offspring union by (rank, crowding).

    The survivors are stored in survival order, so a survivor's index is its
    place in that order.  ``rankings`` maps a union's cost bytes to what
    survival takes from ``_rank_and_crowd`` on them: the survivors' union
    indices, their read-only cost and their mean cost.  A union seen before
    is not ranked again, and only its genes are gathered; the dict is
    cleared once its keys pass PLAN_CACHE_BYTES.
    """
    if len(parents) != config.population_size or len(offspring) != config.population_size:
        raise ValueError("parents and offspring must each have population_size members")
    rankings = {} if rankings is None else rankings
    key = parents.cost.tobytes() + offspring.cost.tobytes()
    if key not in rankings:
        if len(rankings) * len(key) > PLAN_CACHE_BYTES:
            rankings.clear()
        cost = np.concatenate([parents.cost, offspring.cost])
        keep = _rank_and_crowd(cost)[2][: config.population_size]
        cost = cost[keep]
        for a in (keep, cost):
            a.setflags(write=False)
        rankings[key] = keep, cost, float(cost.mean())
    keep, cost, mean_cost = rankings[key]
    return Population(np.concatenate([parents.genes, offspring.genes])[keep], cost, mean_cost)


def _tournament_indices(drawn: np.ndarray) -> np.ndarray:
    """Winners of binary tournaments between the drawn pairs (..., 2) of members stored in survival order.

    The earlier member wins: the order is (rank asc, crowding desc, index
    asc), so comparing two indices decides what rank, then crowding, then
    index would.
    """
    return np.minimum(drawn[..., 0], drawn[..., 1])


# ---------------------------------------------------------------------------
# Main loop
# ---------------------------------------------------------------------------

def solve(instance: NetworkInstance, config: SolverConfig = SolverConfig()) -> SolveResult:
    """Run NSGA-II until max_generations or stall; deterministic per seed.

    The bound, ``oracle.lower_bound``, is read first, once per instance: it
    raises OracleError, naming the total that falls short of the demand, when
    no plan is feasible.  The run also ends as a stall at the first
    generation ``gen`` whose best price is at most ROUNDING above the optimum
    (the bound sits ROUNDING below it), while ``gen + stall_generations <=
    max_generations``: no plan costs less, so the window would close by then
    on the same plan; at generation 0 it leaves an empty trace.  Survival
    puts the first cheapest row of the parent+offspring union first, and the
    parents come first in the union, so the best plan, a population's first
    row, changes only when a child costs less.
    """
    bound = instance.derived(lower_bound)
    rng = np.random.default_rng(config.seed)
    n = config.population_size
    pop = init_population(instance, config, rng)

    best_cost = float(pop.cost[0])  # survival order puts the first cheapest plan seen first
    trace = []
    terminated_by = "max-generations"
    w = config.stall_generations
    reached = bound * (1.0 + 2.0 * ROUNDING) if w < config.max_generations else -np.inf
    cache = _PlanCache()  # plan key -> the column of its price, for the children priced so far
    rankings = {}  # a union's costs -> its survivors
    draws = _variation_draws(n, instance.num_genes, config, rng)

    for gen in range(config.max_generations + 1):  # gen generations are done: test the stops, then run the next
        if best_cost <= reached and gen + w <= config.max_generations:
            terminated_by = "stall"
            break
        old = trace[-1 - w].best_feasible_cost if gen > w else np.inf
        if old - best_cost < STALL_TOLERANCE * max(1.0, abs(old)):  # never true before generation w + 1
            terminated_by = "stall"
            break
        if gen == config.max_generations:
            break

        child_genes = _make_offspring(pop.genes, *next(draws))
        offspring = Population(child_genes, _price_rows(child_genes, instance, cache))
        pop = select_next_generation(pop, offspring, config, rankings)
        best_cost = float(pop.cost[0])
        trace.append(GenerationRecord(gen + 1, best_cost, pop.mean_cost))

    plan = decode(pop.genes[0], instance)  # a row's price ignores its batch, so the breakdown's total is best_cost
    front = pop.cost == pop.cost[0]
    return SolveResult(
        best_feasible=(plan, evaluate_cost(instance, plan)),
        final_front=Population(pop.genes[front], pop.cost[front]),
        trace=trace,
        generations_run=len(trace),
        terminated_by=terminated_by,
    )
