"""Independent checks of the program's outputs, written from the definitions.

Nothing here calls the stability, oracle or clustering code under test: block
sums come from one-hot matrix products, partitions are enumerated by this
file's own restricted-growth-string generator, and the concept implications
are listed here.  Every check returns a list of problems; an empty list means
the output passed.

Sums are compared with a tolerance ``TIE_TOL``: a comparison that falls within
it is a near-tie, and a verdict that depends on a near-tie is accepted either
way.
"""
from __future__ import annotations

import numpy as np

TIE_TOL = 1e-12

CONCEPTS = ("nash", "individual", "contractual-nash", "contractual-individual",
            "individually-rational", "enter-denied", "exit-denied")

# (antecedents, consequent): when every antecedent holds, so must the consequent.
# Derived from the definitions: a Nash deviation without target consent is an
# individual deviation; contractual concepts only forbid more moves; with a fan
# inside nobody may leave; with every door closed and no reason to go alone
# nobody moves.
IMPLICATIONS = (
    (("nash",), "individual"),
    (("nash",), "contractual-nash"),
    (("individual",), "contractual-individual"),
    (("individual",), "individually-rational"),
    (("contractual-nash",), "contractual-individual"),
    (("exit-denied",), "contractual-nash"),
    (("enter-denied", "individually-rational"), "individual"),
)

_ROW_CHUNK = 512


def evaluate(U: np.ndarray, labels: np.ndarray) -> dict[str, tuple[bool, bool]]:
    """All seven concepts for the partition given by per-agent block ``labels``.

    Returns ``concept -> (strict, lenient)``: ``strict`` counts every near-tie
    as a violation, ``lenient`` counts none, so a correct verdict ``v`` has
    ``strict <= v <= lenient``.
    """
    n = U.shape[0]
    labels = np.asarray(labels, dtype=np.intp)
    k = int(labels.max()) + 1
    ar = np.arange(n)
    M = np.zeros((n, k))
    M[ar, labels] = 1.0  # one-hot block membership
    M32 = M.astype(np.float32)
    S = U @ M  # S[a, j]: a's utility for the members of block j
    # pos[j, a] / neg[j, a]: members of block j with positive / negative utility for a.
    pos = np.zeros((k, n), dtype=np.float32)
    neg = np.zeros((k, n), dtype=np.float32)
    for r0 in range(0, n, _ROW_CHUNK):
        rows = U[r0:r0 + _ROW_CHUNK]
        pos += M32[r0:r0 + _ROW_CHUNK].T @ (rows > 0).astype(np.float32)
        neg += M32[r0:r0 + _ROW_CHUNK].T @ (rows < 0).astype(np.float32)
    sizes = np.bincount(labels, minlength=k)
    own = S[ar, labels]
    in_group = sizes[labels] > 1
    fan_inside = pos[labels, ar] > 0
    target = np.ones((n, k), dtype=bool)
    target[ar, labels] = False
    consent = (neg.T == 0) & target  # blocks a could enter without objection

    out: dict[str, list[bool]] = {c: [] for c in CONCEPTS}
    for tol in (-TIE_TOL, TIE_TOL):  # strict first: near-ties count as gains
        gain = (S - own[:, None] > tol) & target
        alone = in_group & (-own > tol)
        ns_dev = gain.any(axis=1) | alone
        is_dev = (gain & consent).any(axis=1) | alone
        out["nash"].append(not ns_dev.any())
        out["individual"].append(not is_dev.any())
        out["contractual-nash"].append(not (ns_dev & ~fan_inside).any())
        out["contractual-individual"].append(not (is_dev & ~fan_inside).any())
        out["individually-rational"].append(bool(((own >= -tol) | ~in_group).all()))
        out["enter-denied"].append(not consent.any())
        out["exit-denied"].append(bool(fan_inside.all()))
    return {c: (v[0], v[1]) for c, v in out.items()}


def profile_problems(U: np.ndarray, labels: np.ndarray, profile: dict[str, bool]) -> list[str]:
    """Disagreements between a seven-concept profile and ``evaluate``."""
    problems = []
    if set(profile) != set(CONCEPTS):
        return [f"profile concepts {sorted(profile)} are not the seven concepts"]
    for concept, (strict, lenient) in evaluate(U, labels).items():
        v = bool(profile[concept])
        if (strict and not v) or (v and not lenient):
            problems.append(f"{concept}: program says {v}, definition says {lenient}")
    return problems


def implication_problems(profile: dict[str, bool]) -> list[str]:
    return [f"{'&'.join(lhs)} holds but {rhs} does not" for lhs, rhs in IMPLICATIONS
            if all(profile[c] for c in lhs) and not profile[rhs]]


def partition_labels(n: int, blocks) -> tuple[np.ndarray | None, list[str]]:
    """Per-agent labels of ``blocks`` if they partition ``0..n-1``, else problems."""
    seen = np.zeros(n, dtype=np.int64)
    labels = np.full(n, -1, dtype=np.intp)
    for i, block in enumerate(blocks):
        if len(block) == 0:
            return None, [f"block {i} is empty"]
        b = np.asarray(block, dtype=np.intp)
        if b.min() < 0 or b.max() >= n:
            return None, [f"block {i} names an agent outside 0..{n - 1}"]
        np.add.at(seen, b, 1)
        labels[b] = i
    if (seen != 1).any():
        bad = np.flatnonzero(seen != 1)[:5].tolist()
        return None, [f"agents {bad} are covered {seen[bad].tolist()} times, not once"]
    return labels, []


def _mutual(U: np.ndarray, members, tau: float) -> bool:
    sub = U[np.ix_(members, members)]
    return bool((sub[~np.eye(len(members), dtype=bool)] >= tau).all())


def clustering_problems(U: np.ndarray, blocks, num_groups: int, clique_size: int,
                        tau: float) -> list[str]:
    """Structure a three-stage output must have, read off the partition alone.

    Groups are round-robin (agent a is in group a mod g).  Every coalition of
    more than one agent is a merged coalition: one mutual-tau clique of
    ``clique_size`` agents from each group, plus at most one agent placed by
    stage 3.  Stage 3 fills every merged coalition before it leaves anyone
    alone.
    """
    g, s = num_groups, clique_size
    problems = []
    merged_sizes = []
    singletons = 0
    for i, block in enumerate(blocks):
        if len(block) == 1:
            singletons += 1
            continue
        if len(block) not in (g * s, g * s + 1):
            problems.append(f"block {i} has {len(block)} agents, not {g * s} or {g * s + 1}")
            continue
        merged_sizes.append(len(block))
        by_group: list[list[int]] = [[] for _ in range(g)]
        for a in block:
            by_group[a % g].append(a)
        counts = sorted(len(m) for m in by_group)
        want = [s] * g if len(block) == g * s else [s] * (g - 1) + [s + 1]
        if counts != want:
            problems.append(f"block {i} holds {counts} agents per group, not one clique each")
            continue
        for members in by_group:
            options = [members] if len(members) == s else [
                members[:j] + members[j + 1:] for j in range(len(members))]
            if not any(_mutual(U, opt, tau) for opt in options):
                problems.append(f"block {i}: agents {members} hold no mutual-{tau} clique")
    if singletons and merged_sizes and min(merged_sizes) != g * s + 1:
        problems.append("stage 3 left agents alone while a merged coalition had room")
    return problems


# ------------------------------------------------------------------ oracle ----

def rgs_table(n: int) -> np.ndarray:
    """Every restricted growth string of length ``n``, in lexicographic order."""
    rows = np.zeros((1, 1), dtype=np.int8)
    for _ in range(n - 1):
        width = rows.max(axis=1).astype(np.intp) + 2  # a row may continue with 0..max+1
        first = np.repeat(np.cumsum(width) - width, width)
        ext = (np.arange(first.size) - first).astype(np.int8)
        rows = np.column_stack([np.repeat(rows, width, axis=0), ext])
    return rows


# Small chunks keep the enumeration's memory well below the program's own.
_PART_CHUNK = 256


def enumerate_verdicts(U: np.ndarray, table: np.ndarray, concepts) -> dict[str, np.ndarray]:
    """Per-partition ``(strict, lenient)`` verdicts for every row of ``table``.

    The definitions of ``evaluate``, batched over all partitions of a small
    game (``evaluate`` handles one partition of thousands of agents).
    Returns ``concept -> bool array of shape (P, 2)``.
    """
    P, n = table.shape
    ar = np.arange(n)
    pos = (U > 0).astype(np.float64)
    neg = (U < 0).astype(np.float64)
    out = {c: np.zeros((P, 2), dtype=bool) for c in concepts}
    for p0 in range(0, P, _PART_CHUNK):
        lab = table[p0:p0 + _PART_CHUNK]
        m = lab.shape[0]
        M = np.zeros((m, n, n))
        M[np.arange(m)[:, None], ar[None, :], lab] = 1.0
        S = np.einsum("ab,pbj->paj", U, M)
        # fans[p, j, a] / objectors[p, j, a]: members of block j with positive /
        # negative utility for a.
        fans = np.einsum("pbj,ba->pja", M, pos)
        objectors = np.einsum("pbj,ba->pja", M, neg)
        sizes = M.sum(axis=1)
        idx = np.arange(m)[:, None]
        own = S[idx, ar, lab]
        in_group = sizes[idx, lab] > 1
        fan_inside = fans[idx, lab, ar] > 0
        target = sizes[:, None, :] > 0
        target = np.repeat(target, n, axis=1)
        target[idx, ar, lab] = False
        consent = (objectors.transpose(0, 2, 1) == 0) & target
        for col, tol in enumerate((-TIE_TOL, TIE_TOL)):
            gain = (S - own[:, :, None] > tol) & target
            alone = in_group & (-own > tol)
            ns_dev = gain.any(axis=2) | alone
            is_dev = (gain & consent).any(axis=2) | alone
            flags = {
                "nash": ~ns_dev.any(axis=1),
                "individual": ~is_dev.any(axis=1),
                "contractual-nash": ~(ns_dev & ~fan_inside).any(axis=1),
                "contractual-individual": ~(is_dev & ~fan_inside).any(axis=1),
                "individually-rational": ((own >= -tol) | ~in_group).all(axis=1),
                "enter-denied": ~consent.any(axis=(1, 2)),
                "exit-denied": fan_inside.all(axis=1),
            }
            for c in concepts:
                out[c][p0:p0 + m, col] = flags[c]
    return out


def count_problems(verdicts: dict[str, np.ndarray], cns_count: int) -> list[str]:
    """A contractual-Nash count against the enumeration and the Nash count."""
    cns = verdicts["contractual-nash"]
    lo, hi = int(cns[:, 0].sum()), int(cns[:, 1].sum())
    problems = []
    if not lo <= cns_count <= hi:
        problems.append(f"contractual-nash count {cns_count}, enumeration gives {lo}..{hi}")
    nash_lo = int(verdicts["nash"][:, 0].sum())
    if nash_lo > cns_count:
        problems.append(f"{nash_lo} Nash-stable partitions but only {cns_count} "
                        "contractual-Nash ones")
    return problems


def nash_by_k(verdicts: dict[str, np.ndarray], table: np.ndarray) -> dict[int, tuple[bool, bool]]:
    """Whether some k-block partition is Nash-stable, as ``k -> (strict, lenient)``."""
    ks = table.max(axis=1) + 1
    nash = verdicts["nash"]
    return {k: (bool(nash[ks == k, 0].any()), bool(nash[ks == k, 1].any()))
            for k in range(1, table.shape[1] + 1)}


def existence_problems(games: list[np.ndarray], verdicts: list[dict[str, np.ndarray]],
                       table: np.ndarray, per_game: list[dict[str, bool]],
                       per_k_successes: dict[int, int]) -> list[str]:
    """An existence campaign's per-game flags and per-k counts against the enumeration.

    Also checks two closed conditions directly on the utilities: a Nash-stable
    grand coalition exists iff every row sum is >= 0, and a Nash-stable
    all-singleton partition iff every off-diagonal utility is <= 0.
    """
    n = table.shape[1]
    problems = []
    k_lo = {k: 0 for k in range(1, n + 1)}
    k_hi = dict(k_lo)
    for t, (U, ver, flags) in enumerate(zip(games, verdicts, per_game)):
        for concept in ("nash", "individual"):
            lo = bool(ver[concept][:, 0].any())
            hi = bool(ver[concept][:, 1].any())
            got = flags[f"exists:{concept}"]
            if (lo and not got) or (got and not hi):
                problems.append(f"game {t}: exists:{concept} is {got}, enumeration {hi}")
        for k, (lo, hi) in nash_by_k(ver, table).items():
            k_lo[k] += lo
            k_hi[k] += hi
    for k in range(1, n + 1):
        got = per_k_successes.get(k)
        if got is None or not k_lo[k] <= got <= k_hi[k]:
            problems.append(f"exists:nash:k={k} counts {got}, enumeration {k_lo[k]}..{k_hi[k]}")
    grand = sum(bool((U.sum(axis=1) >= 0).all()) for U in games)
    if per_k_successes.get(1) != grand:
        problems.append(f"k=1 counts {per_k_successes.get(1)} games, row sums give {grand}")
    off = ~np.eye(n, dtype=bool)
    alone = sum(bool((U[off] <= 0).all()) for U in games)
    if per_k_successes.get(n) != alone:
        problems.append(f"k={n} counts {per_k_successes.get(n)} games, signs give {alone}")
    return problems


def witness_problems(table: np.ndarray, verdicts: np.ndarray, witness_labels) -> list[str]:
    """A first-stable-partition answer against the enumeration of one concept.

    ``verdicts`` is that concept's ``(P, 2)`` array; ``witness_labels`` the
    witness's restricted growth string, or ``None`` for "no stable partition".
    """
    definitely = np.flatnonzero(verdicts[:, 0])
    if witness_labels is None:
        return ["no witness, but a partition is stable"] if definitely.size else []
    w = rgs_rank(table, witness_labels)
    if w is None:
        return [f"witness {list(witness_labels)} is not a partition of {table.shape[1]} agents"]
    if not verdicts[w, 1]:
        return [f"witness {list(witness_labels)} is not stable"]
    if definitely.size and definitely[0] < w:
        return [f"witness is partition #{w}, but #{int(definitely[0])} is stable and comes first"]
    return []


def rgs_rank(table: np.ndarray, labels) -> int | None:
    """Position of a restricted growth string in ``table``, or ``None``."""
    hit = np.flatnonzero((table == np.asarray(labels)).all(axis=1))
    return int(hit[0]) if hit.size == 1 else None


def canonical_labels(n: int, blocks) -> list[int]:
    """Restricted growth string of a partition: blocks numbered by first agent."""
    labels, problems = partition_labels(n, blocks)
    if problems:
        raise ValueError(problems[0])
    out, seen = [], {}
    for lab in labels.tolist():
        out.append(seen.setdefault(lab, len(seen)))
    return out
