"""From-scratch NSGA-II engine for the production-distribution network.

The genotype is a real vector in [0,1]^L laid out as
[plant-DC block (K*J) | DC-retailer allocation block (J*I)].  Decoding turns
the allocation block into per-retailer allocation weights, so every decoded
plan meets demand exactly by construction.  Production and raw material are
not searched for: given the shipments, the decoder fills the plant-DC arcs
in route-cost order c_kj + h_j (a greedy flow decode, as in Gen, Altiparmak
& Lin, OR Spectrum 28, 2006) and buys what each plant's production needs
from the cheapest suppliers first.  In aggregate mode any DC may ship any
case and every plan ships the total demand, so the fill runs once per
instance: each plant on its cheapest route, up to D_k/u.  In strict per-DC
mode it covers each DC's shipments on the arcs into it, each arc boxed at
D_k/(u*J); the boxes give every DC its own plant room, so that is the
cheapest production for the shipments.  The K*J plant-DC genes are read in
neither mode; they stay so that the chromosome keeps its layout, and the
benchmark picks its tiny CLI instances by chromosome length.

Offspring are repaired before they are evaluated, and the repair is written
back into their allocation genes: each retailer is served by its
highest-weight DC (in strict per-DC mode DCs are filled in weight order up
to their room).  Repaired plans sit on the boundary where the optimum lies,
so the search no longer has to creep towards it at the low mutation rate.
The initial population is left uniform.

The engine minimizes the pair (total cost, total constraint violation) as a
genuine bi-objective tradeoff and reports the cheapest zero-violation plan
ever seen.  A plan has one price, the total ``network`` gives it: ranking,
the best plan, the trace, the stall test and the result all read the same
number.  Each generation is ranked once, by a sort-and-sweep over the two
objectives.  Every population, the initial one included, is stored in
survival order, so the tournament compares two indices.  Ranking with plain
Pareto domination keeps a spread of near-feasible individuals alive;
collapsing feasible comparisons to cost alone starves the population of
diversity under the low mutation rate and stalls far from the optimum.

A run ends at max_generations or on a stall: the best price gained too
little over the last stall_generations generations.  A run whose best price
reaches ``oracle.lower_bound`` ends as a stall at once, when the stall
window still fits in the budget, because no plan can improve on it and the
window would close on the same plan (branch and bound's pruning rule).

A generation does only the work that depends on it.  What depends on the
instance alone (the allocation-gene slice, the arcs in route-cost order and
their room, the suppliers in price order and their running capacity, the
aggregate-mode production and raw purchase, the lower bound) is built on
first use and kept with the instance.  The best plan is decoded and priced
once, after the run; the final front is returned as population rows.
Variation draws random numbers only where they are used: spread factors for
the pairs that cross, and the mutation sites as geometric gaps between
successive mutated genes, which is an exact per-gene Bernoulli(p_m) draw.  A
seed therefore gives a different run than it did when every generation drew
full blocks of numbers, and again since the initial population is stored in
survival order and plans are priced once; the distributions are the same.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .network import (
    CostBreakdown,
    DimensionMismatchError,
    FlowPlan,
    NetworkInstance,
    batch_evaluate,
    evaluate_cost,
)
from .oracle import lower_bound


SBX_ETA = 15.0  # distribution index of simulated binary crossover
PM_ETA = 20.0  # distribution index of polynomial mutation
STALL_TOLERANCE = 1e-6  # relative gain in best cost below which a generation window counts as a stall


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


@dataclass
class Population:
    """Generation state as stacked arrays: genes (N,L), cost (N,), violation (N,).

    ``rank`` is set once the population has been ranked.
    """

    genes: np.ndarray
    cost: np.ndarray
    violation: np.ndarray
    rank: Optional[np.ndarray] = None

    def __len__(self):
        return self.genes.shape[0]


@dataclass
class GenerationRecord:
    generation: int
    best_feasible_cost: Optional[float]
    mean_cost: float
    min_violation: float
    feasible_count: int


@dataclass
class SolveResult:
    best_feasible: Optional[tuple]  # (FlowPlan, CostBreakdown)
    final_front: Population  # the rank-0 rows of the last population, in survival order
    trace: list  # GenerationRecord per generation
    generations_run: int
    terminated_by: str  # "max-generations" | "stall": the window closed or the best price reached lower_bound


# ---------------------------------------------------------------------------
# Genotype <-> phenotype
# ---------------------------------------------------------------------------

def _greedy_fill(room: np.ndarray, need: np.ndarray, out=None) -> np.ndarray:
    """Amounts taken from the slots of ``room`` (..., M), first slot first, to cover ``need`` (...)."""
    before = np.cumsum(room, axis=-1) - room
    return np.minimum(room, np.maximum(np.asarray(need)[..., None] - before, 0.0), out=out)


class _Codec:
    """Per-instance constants of decoding and repair, built once per instance.

    ``arcs`` (G, M) lists flat plant-DC arc indices k*J + j in groups, each
    group cheapest route c_kj + h_j first, and ``room`` (G, M) what each arc
    may carry.  In aggregate mode the one group holds each plant's cheapest
    route with room D_k/u, and every decoded plan ships the total demand, so
    one ``production`` (K, J) and its ``raw`` purchase (S, K) serve every
    plan.  In strict per-DC mode group j holds the arcs into DC j, each with
    the arc box D_k/(u*J).
    """

    def __init__(self, instance: NetworkInstance):
        _, k, j, _ = instance.counts
        self.allocation_genes = slice(k * j, None)
        self.gene_demand = np.repeat(instance.demand, j)  # (I*J,) demand of each allocation gene's retailer
        self.utilization = instance.utilization
        self.strict = instance.strict_per_dc
        self.shape = (k, j)
        cheapest = np.argsort(instance.raw_unit_cost, kind="stable")
        self.supplier_rank = np.argsort(cheapest)  # position of each supplier in that order
        self.supplied = np.concatenate([[0.0], np.cumsum(instance.supplier_capacity[cheapest])])  # (S+1,)
        route = instance.plant_dc_unit_cost + instance.holding_unit_cost[None, :]  # (K, J)
        if self.strict:
            box = instance.plant_capacity / (instance.utilization * j)  # arc box D_k/(u*J)
            plants = np.argsort(route, axis=0, kind="stable").T  # (J, K)
            self.arcs = plants * j + np.arange(j)[:, None]
            self.room = box[plants]
            self.dc_room = np.minimum(instance.dc_capacity, box.sum())  # a DC's capacity, and what its arcs supply
        else:
            arc = route.argmin(axis=1)  # each plant's cheapest route, the first on a tie
            plants = np.argsort(route[np.arange(k), arc], kind="stable")
            self.arcs = (plants * j + arc[plants])[None]
            self.room = (instance.plant_capacity / instance.utilization)[plants][None]
            need = np.full((1, 1), instance.demand.sum())
            self.production = self.fill(need, need[:, 0])[0]
            self.raw = self.raw_fill(self.production.sum(axis=1)[None])[0]
        for a in vars(self).values():
            if isinstance(a, np.ndarray):
                a.setflags(write=False)

    def fill(self, need: np.ndarray, total: np.ndarray) -> np.ndarray:
        """The cheapest production (n, K, J) whose arrivals cover ``need`` (n, G) per group and ``total`` (n,).

        Each group fills its arcs in order from zero, each up to its room.
        Rounding can leave the arrivals, added as ``network`` adds them, a
        few ulps short; a group's target then rises until its arrivals cover
        its need and, once every group of the row does, the row's arrivals
        cover ``total``, or until its arcs are full.  So a plan never leans
        on the production-vs-shipment tolerance.
        """
        n = need.shape[0]
        p = np.zeros((n, *self.shape))
        target = need
        while True:
            take = _greedy_fill(self.room, target)
            p.reshape(n, -1)[:, self.arcs] = take
            arrivals = np.einsum("nkj->nj", p)
            arrived = arrivals.sum(axis=1)
            gap = need - (arrivals if self.strict else arrived[:, None])  # (n, G), > 0 where short
            covered = (gap <= 0).all(axis=1)
            if covered.all() and (arrived >= total).all():  # the usual case, tested first as it is cheaper
                return p
            gap = np.where(covered[:, None] & (need > 0), (total - arrived)[:, None], gap)
            short = (gap > 0) & (take != self.room).any(axis=-1)
            if not short.any():
                return p
            target = np.where(short, np.maximum(target + gap, np.nextafter(target, np.inf)), target)

    def raw_fill(self, production: np.ndarray) -> np.ndarray:
        """Raw flows (n,S,K) covering u x each plant's production (n,K), cheapest supplier first.

        Raw cost depends only on the supplier, so this is the cheapest raw
        plan for the given production.  Plants are served in index order;
        once the suppliers run dry the rest stays uncovered and shows as a
        violation.
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
    """Decode gene rows (n, L) into stacked flows r:(n,S,K), p:(n,K,J), t:(n,J,I).

    The last block holds J allocation weights per retailer; shipments are the
    demand split in proportion to the weights (uniform split when all
    weights are zero).  Production is the cheapest that covers the
    shipments (``_Codec.fill``), and raw material is bought for u x each
    plant's production, cheapest supplier first, up to supplier capacity; the
    plant-DC genes are not read.  In aggregate mode that is one read-only
    plan per instance, broadcast over the rows.  In strict per-DC mode it is
    filled per row: each DC's shipments on the arcs into it, each arc boxed
    at D_k/(u*J).
    """
    s, k, j, i = instance.counts
    n = genes.shape[0]
    if genes.shape[1] != instance.num_genes:
        raise DimensionMismatchError(
            f"chromosome length {genes.shape[1]}, expected {instance.num_genes}"
        )
    codec = _codec(instance)
    # weight sums repeated per gene: broadcasting them over the short DC axis is slow in numpy
    w = genes[:, codec.allocation_genes]  # (n, I*J)
    wsum = np.repeat(np.einsum("nij->ni", w.reshape(n, i, j)), j, axis=1)
    frac = np.divide(w, wsum, out=np.full(w.shape, 1.0 / j), where=wsum > 0)
    t = np.ascontiguousarray((frac * codec.gene_demand).reshape(n, i, j).transpose(0, 2, 1))
    if not instance.strict_per_dc:
        return np.broadcast_to(codec.raw, (n, s, k)), np.broadcast_to(codec.production, (n, k, j)), t
    p = codec.fill(np.einsum("nji->nj", t), np.einsum("nji->ni", t).sum(axis=1))
    return codec.raw_fill(np.einsum("nkj->nk", p)), p, t


def _repair_delivery(w: np.ndarray, instance: NetworkInstance) -> np.ndarray:
    """Shares (n,I,J) of each retailer's demand per DC, from allocation weights w (n,I,J).

    Each retailer goes to its highest-weight DC.  In strict per-DC mode, rows
    where that would overload a DC are filled instead: the retailers, in
    index order, fill DCs in weight order up to the room left in each (its
    capacity, and no more than its inbound arcs can supply); a retailer that
    finds every DC full puts the rest on its favourite DC.

    Until a row's first overflow every retailer takes its favourite DC
    whole, so those retailers are assigned at once, and a running sum from
    each DC's room gives the room they leave, rounded as the sequential fill
    rounds it.  The fill goes retailer by retailer only from the earliest
    overflow in any row on.
    """
    n, i, j = w.shape
    favourite = w.argmax(axis=2)
    shares = np.zeros((n, i, j))
    shares.reshape(-1)[np.arange(n * i) * j + favourite.ravel()] = 1.0
    if not instance.strict_per_dc:
        return shares
    demand = instance.demand
    dc_room = _codec(instance).dc_room
    over = np.flatnonzero((np.einsum("nij,i->nj", shares, demand) > dc_room).any(axis=1))
    if over.size == 0:
        return shares
    m = over.size
    favourite_over = shares[over]
    # room[:, r]: what each DC has left for retailer r if all before it took their favourite whole
    taken = favourite_over * np.maximum(demand, 0.0)[None, :, None]
    room = np.cumsum(np.concatenate([np.broadcast_to(dc_room, (m, 1, j)), -taken], axis=1), axis=1)
    # the sequential fill gives a retailer its favourite whole when the demand fits the room there
    # by more than the rounding of the fill's running sums, at most a few ulps of the total room
    margin = 4.0 * np.finfo(np.float64).eps * dc_room.sum()
    fits = demand <= np.einsum("mij,mij->mi", room[:, :-1], favourite_over) - margin
    overflows = np.flatnonzero(~(fits | (demand <= 0)).all(axis=0))
    if overflows.size == 0:
        return shares
    start = overflows[0]
    order = np.argsort(-w[over, start:], axis=2, kind="stable")  # DCs in weight order
    at = np.arange(m)[:, None, None] * j + order  # flat index into room of each DC in weight order
    room = room[:, start].ravel()
    rest = demand[start:]
    taken = np.empty((m, i - start, j))  # amounts in weight order
    for f, d in enumerate(rest):
        if d <= 0:
            taken[:, f, :] = 0.0
            taken[:, f, 0] = 1.0  # all of nothing on the favourite
            continue
        left = room[at[:, f]]
        take = _greedy_fill(left, d, out=taken[:, f, :])
        take[:, 0] += np.maximum(d - take.sum(axis=1), 0.0)
        room[at[:, f]] = np.maximum(left - take, 0.0)
    tail = np.empty_like(taken)  # the shares in DC order
    tail.reshape(-1)[np.arange(m * (i - start)).reshape(m, -1, 1) * j + order] = taken
    tail /= np.where(rest > 0, rest, 1.0)[:, None]
    shares[over, start:] = tail
    return shares


def repair_batch(genes: np.ndarray, instance: NetworkInstance) -> np.ndarray:
    """Repaired copy of gene rows (n, L) whose decoded plans are tight.

    The allocation block is rewritten so that each retailer is served as
    ``_repair_delivery`` decides; decoding covers the shipments with the
    cheapest production, so the plant-DC block is left as it is.  Decoding
    the repaired genes gives the repaired plan.
    """
    _, _, j, i = instance.counts
    n = genes.shape[0]
    codec = _codec(instance)
    shares = _repair_delivery(genes[:, codec.allocation_genes].reshape(n, i, j), instance)
    repaired = genes.copy()
    # a spill onto a full DC can round a share above 1 (none is below 0); w / wsum reads the same
    repaired[:, codec.allocation_genes] = np.minimum(shares.reshape(n, i * j), 1.0)
    return repaired


def decode(chromosome: np.ndarray, instance: NetworkInstance) -> FlowPlan:
    chromosome = np.asarray(chromosome, dtype=np.float64)
    r, p, t = decode_batch(chromosome[None, :], instance)
    return FlowPlan(r[0], p[0], t[0])


def init_population(instance: NetworkInstance, config: SolverConfig, rng) -> Population:
    """Uniform random genes on [0,1], decoded, evaluated, ranked and stored in survival order."""
    genes = rng.random((config.population_size, instance.num_genes))
    cost, violation = batch_evaluate(instance, *decode_batch(genes, instance))
    ranks, _, order = _rank_and_crowd(cost, violation)
    return Population(genes=genes[order], cost=cost[order], violation=violation[order], rank=ranks[order])


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


def _make_offspring(parent_genes: np.ndarray, config: SolverConfig, rng) -> np.ndarray:
    """Crossover + mutation over the whole mating pool in one batch.

    Pairs are consecutive rows.  Simulated binary crossover fires per pair
    with probability crossover_prob, polynomial mutation per gene with
    probability mutation_prob, genes stay clamped to [0,1].  Random numbers
    are drawn only where they are used: spread factors for the pairs that
    cross, and the sites and deltas of the genes that mutate.
    """
    n, length = parent_genes.shape
    children = parent_genes.copy()
    fire = np.flatnonzero(rng.random(n // 2) < config.crossover_prob)
    if fire.size:
        u = rng.random((fire.size, length))
        exp = 1.0 / (SBX_ETA + 1.0)
        beta = np.where(u <= 0.5, 2.0 * u, 1.0 / (2.0 * (1.0 - u))) ** exp
        a = parent_genes[2 * fire]
        b = parent_genes[2 * fire + 1]
        children[2 * fire] = np.clip(0.5 * ((1.0 + beta) * a + (1.0 - beta) * b), 0.0, 1.0)
        children[2 * fire + 1] = np.clip(0.5 * ((1.0 - beta) * a + (1.0 + beta) * b), 0.0, 1.0)
    sites = _mutation_sites(n * length, config.mutation_prob, rng)
    if sites.size:
        um = rng.random(sites.size)
        expm = 1.0 / (PM_ETA + 1.0)
        delta = np.where(um < 0.5, (2.0 * um) ** expm - 1.0, 1.0 - (2.0 * (1.0 - um)) ** expm)
        flat = children.reshape(-1)  # a view: children is a fresh contiguous copy
        flat[sites] = np.clip(flat[sites] + delta, 0.0, 1.0)
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


def _crowding(ranks: np.ndarray, objectives: np.ndarray) -> np.ndarray:
    """Deb-style crowding of every point within its front, all fronts in one pass per objective.

    Per objective, the points are sorted by (front, value, index); each
    front's first and last points get +inf and its interior points add the
    gap between their neighbours over the front's span.
    """
    n = ranks.size
    dist = np.zeros(n)
    if n == 0:
        return dist
    index = np.arange(n)
    for col in objectives.T:
        order = np.lexsort((index, col, ranks))
        front, value = ranks[order], col[order]
        edge = np.flatnonzero(front[1:] != front[:-1])
        first = np.concatenate(([0], edge + 1))
        last = np.concatenate((edge, [n - 1]))
        span = (value[last] - value[first])[front]  # fronts are numbered 0, 1, ... in sorted order
        gap = np.zeros(n)
        gap[1:-1] = value[2:] - value[:-2]
        dist[order] += np.where(span > 0, gap / np.where(span > 0, span, 1.0), 0.0)
        dist[order[first]] = np.inf
        dist[order[last]] = np.inf
    return dist


def _rank_and_crowd(cost: np.ndarray, violation: np.ndarray):
    """(ranks, crowding, survivor order) under Pareto domination on (cost, violation).

    The survivor order lists indices by (rank asc, crowding desc, index asc);
    truncating it at N implements elitist survival.
    """
    ranks = _front_ranks(cost, violation)
    crowd = _crowding(ranks, np.stack([cost, violation], axis=1))
    order = np.lexsort((np.arange(ranks.size), -crowd, ranks))
    return ranks, crowd, order


def select_next_generation(parents: Population, offspring: Population, config: SolverConfig) -> Population:
    """Elitist survival from the parent+offspring union by (rank, crowding).

    The survivors keep the ranks they got in the union and are stored in
    survival order, so a survivor's index is its place in that order.
    """
    if len(parents) != config.population_size or len(offspring) != config.population_size:
        raise ValueError("parents and offspring must each have population_size members")
    genes = np.vstack([parents.genes, offspring.genes])
    cost = np.concatenate([parents.cost, offspring.cost])
    violation = np.concatenate([parents.violation, offspring.violation])
    ranks, _, order = _rank_and_crowd(cost, violation)
    keep = order[: config.population_size]
    return Population(genes=genes[keep], cost=cost[keep], violation=violation[keep], rank=ranks[keep])


def _tournament_indices(n, rng, n_select):
    """Binary tournaments among n members stored in survival order: the earlier member wins.

    The order is (rank asc, crowding desc, index asc), so comparing two
    indices decides what rank, then crowding, then index would.
    """
    return rng.integers(0, n, size=(n_select, 2)).min(axis=1)


# ---------------------------------------------------------------------------
# Main loop
# ---------------------------------------------------------------------------

def _cheaper(pop: Population, genes, cost):
    """The genes and price of ``pop``'s cheapest feasible row if it costs less than ``cost``, else the arguments."""
    feasible = np.flatnonzero(pop.violation == 0.0)
    if feasible.size:
        q = feasible[np.argmin(pop.cost[feasible])]
        if pop.cost[q] < cost:
            return pop.genes[q], float(pop.cost[q])
    return genes, cost


def solve(instance: NetworkInstance, config: SolverConfig = SolverConfig()) -> SolveResult:
    """Run NSGA-II until max_generations or stall; deterministic per seed.

    The run also ends as a stall at the first generation ``gen`` whose best
    price is at or below ``oracle.lower_bound`` while ``gen +
    stall_generations <= max_generations``: no feasible plan costs less, so
    the window would close by then on the same plan.  The bound is computed
    only when the window is shorter than the budget, and once per instance.
    """
    rng = np.random.default_rng(config.seed)
    n = config.population_size
    pop = init_population(instance, config, rng)

    best_genes, best_cost = _cheaper(pop, None, np.inf)  # the cheapest feasible plan seen, its batch price
    trace = []
    terminated_by = "max-generations"
    w = config.stall_generations
    bound = instance.derived(lower_bound) if w < config.max_generations else -np.inf

    for gen in range(1, config.max_generations + 1):
        mating = _tournament_indices(n, rng, n)

        child_genes = repair_batch(_make_offspring(pop.genes[mating], config, rng), instance)

        c_r, c_p, c_t = decode_batch(child_genes, instance)
        c_cost, c_viol = batch_evaluate(instance, c_r, c_p, c_t)
        offspring = Population(genes=child_genes, cost=c_cost, violation=c_viol)

        best_genes, best_cost = _cheaper(offspring, best_genes, best_cost)  # survivors were scanned as offspring

        pop = select_next_generation(pop, offspring, config)

        feasible_count = int(np.count_nonzero(pop.violation == 0.0))
        trace.append(
            GenerationRecord(
                generation=gen,
                best_feasible_cost=None if best_genes is None else best_cost,
                mean_cost=float(pop.cost.mean()),
                min_violation=float(pop.violation.min()),
                feasible_count=feasible_count,
            )
        )

        if best_cost <= bound and gen + w <= config.max_generations:
            terminated_by = "stall"
            break
        old = trace[-1 - w].best_feasible_cost if gen > w else None
        if old is not None and (old - best_cost) < STALL_TOLERANCE * max(1.0, abs(old)):
            terminated_by = "stall"
            break

    best_feasible = None  # (FlowPlan, CostBreakdown); a row's price ignores its batch, so the total is best_cost
    if best_genes is not None:
        plan = decode(best_genes, instance)
        best_feasible = (plan, evaluate_cost(instance, plan))
    front = pop.rank == 0
    return SolveResult(
        best_feasible=best_feasible,
        final_front=Population(pop.genes[front], pop.cost[front], pop.violation[front], pop.rank[front]),
        trace=trace,
        generations_run=len(trace),
        terminated_by=terminated_by,
    )
