"""Windmill strategies assembled from per-blade solvable sets.

A windmill is n copies of K_k glued at an axle vertex.  The assembly recipe:
give every color i a *product* P_i = complement(S_{i,1}) x ... x
complement(S_{i,n}) over the blades' color tuples, where each S_{i,j} is a
solvable set of K_{k-1} with a known winning strategy.  If the products are
pairwise disjoint, the axle guesses the index of the product class the
observed blade colors fall into (leftovers go to class 0), and each blade
runs the strategy of S_{axle color, blade}.  Whatever the axle's true color
i is, either some blade's colors landed in S_{i,j} (that blade wins) or the
whole tuple is in P_i (the axle wins).  Each S_{i,j} is a game.SolvableSet,
a C-order boolean mask over [q]^(k-1).

Two certificate families are built here: a parity certificate with q = 2k-2
colors (products indexed by binary digits, factors are the halves of a
parity set) and a residue certificate with q = d^n colors (factors from
sum-avoiding sets over translates of a difference-disjoint family).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (CertificateError, InfeasibleError, ParameterError, file_int, file_rows,
                     read_json, refuse_power, write_json)
from .game import (MAX_AXES, SolvableSet, Strategy, _digit_sums, _guess_dtype, _table_cells,
                   build_graph, correct_guess_counts, sum_target_strategy)

MAX_MEMBER_ENUMERATION = 10**7  # cap on the cells of one solvable-set mask
MAX_AXLE_TABLE = 10**8  # cap on the entries of an assembled axle table


def _cells_guard(q: int, m: int) -> None:
    if m > MAX_AXES or q**m > MAX_MEMBER_ENUMERATION:
        raise InfeasibleError(f"[{q}]^{m} exceeds the {MAX_MEMBER_ENUMERATION}-cell mask cap")


# ---------------------------------------------------------------------------
# parity sets


def _parity_guard(k: int) -> int:
    if k < 2:
        raise ParameterError("need k >= 2")
    q = 2 * k - 2
    _cells_guard(q, k - 1)
    return q


def parity_set(k: int) -> SolvableSet:
    """Half of [2k-2]^(k-1): the union of the subcubes C_v over odd-weight v,
    where digit i lies in [(k-1)v_i, (k-1)(v_i+1))."""
    q = _parity_guard(k)
    upper = _digit_sums(np.arange(q) // (k - 1), k - 1, 2)
    return SolvableSet(k - 1, q, (upper == 1).reshape((q,) * (k - 1)))


def parity_set_strategy(k: int, side: str) -> tuple[SolvableSet, Strategy]:
    """Winning strategy on K_{k-1} restricted to one parity side.

    side="odd" plays on the parity set itself, side="even" on its
    complement.  Each player recovers the subcube index v from the observed
    digits plus the side's parity, then runs the (k-1)-color sum strategy on
    the within-subcube offsets.
    """
    if side not in ("odd", "even"):
        raise ParameterError(f"side must be 'odd' or 'even', got {side!r}")
    want = 1 if side == "odd" else 0
    odd = parity_set(k)
    q, m = odd.q, k - 1
    # the mates' digits in any order: only their sums enter the guesses
    vsum = _digit_sums(np.arange(q) // m, m - 1, 2)
    ysum = _digit_sums(np.arange(q) % m, m - 1, m)
    dt = _guess_dtype(q)
    v = ((vsum ^ want) * m).astype(dt)  # the subcube digit, the same for every player
    # i + m - ysum stays non-negative in the residues' unsigned dtype
    tables = tuple(((i + m - ysum) % m).astype(dt) + v for i in range(m))
    solvable = odd if side == "odd" else SolvableSet(m, q, ~odd.mask)
    return solvable, Strategy(q, tables)


# ---------------------------------------------------------------------------
# difference-disjoint residue families

PAIRWISE_MAX_PAIRS = 1 << 14  # fewer pairs skip the FFT; both cost the same here at m = 4096
FFT_MAX_MODULUS = 1 << 20


@dataclass(frozen=True, eq=False)
class ResidueSet:
    """Subset of Z/m: `mask` is a bool vector of shape (m,), mask[r] holds
    when r is a member."""

    modulus: int
    mask: np.ndarray

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ParameterError("modulus must be >= 1")
        mask = self.mask
        if not (isinstance(mask, np.ndarray) and mask.dtype == bool
                and mask.shape == (self.modulus,)):
            raise ParameterError(f"mask must be a bool vector of shape ({self.modulus},)")

    @property
    def members(self) -> frozenset[int]:
        return frozenset(np.flatnonzero(self.mask).tolist())

    def translate(self, c: int) -> "ResidueSet":
        return ResidueSet(self.modulus, np.roll(self.mask, c))

    def __len__(self) -> int:
        return int(np.count_nonzero(self.mask))


@dataclass(frozen=True)
class DifferenceDisjointFamily:
    modulus: int
    sets: tuple[ResidueSet, ...]


def difference_disjoint_family(d: int, n: int) -> DifferenceDisjointFamily:
    """A_i = multiples pattern {x in Z/d^n : base-d digit i-1 of x is 0}.

    Each set has d^(n-1) elements and the translate intersections are
    singletons: the digits pinned by each set are independent.
    """
    if d < 2 or n < 1:
        raise ParameterError("need d >= 2 and n >= 1")
    refuse_power(d, n, FFT_MAX_MODULUS, "residues exceed the modulus cap")
    m = d**n
    x = np.arange(m)
    return DifferenceDisjointFamily(
        m, tuple(ResidueSet(m, x // d**i % d == 0) for i in range(n)))


def _difference_indicator(mask: np.ndarray) -> np.ndarray:
    """Boolean indicator over Z/m of the difference set {a - b mod m} of a mask."""
    m = len(mask)
    a = np.flatnonzero(mask)
    if len(a) * len(a) <= PAIRWISE_MAX_PAIRS:
        diffs = (a[:, None] - a[None, :]).ravel() % m
        return np.bincount(diffs, minlength=m) > 0
    # Large sets: circular autocorrelation of the 0/1 indicator, whose exact
    # entries are the counts #{(a, b) in A^2 : a - b = r}.  Higham, "Accuracy
    # and Stability of Numerical Algorithms" (2nd ed.), §24.1, Thm 24.2: a
    # computed length-m FFT is within eps = log2(m) eta / (1 - log2(m) eta)
    # in relative 2-norm, eta ~ 7u, u = 2^-53.  With s = |A| ones, |X_j| <= s
    # and ||X||_2 = sqrt(m s), so each count comes out within 3 eps s^1.5 <
    # 2^-14 of its integer for m <= 2^20 (mixed-radix and Bluestein lengths
    # add small constant factors): the 0.5 cut between 0 and 1 is exact.
    if m > FFT_MAX_MODULUS:
        raise InfeasibleError(f"FFT correlation is proven exact only for m <= {FFT_MAX_MODULUS}")
    freq = np.fft.rfft(mask)
    corr = np.fft.irfft(freq * np.conj(freq), m)
    return corr > 0.5


def _family_masks(sets: Sequence[ResidueSet], m: int) -> list[np.ndarray]:
    if not sets:
        raise ParameterError("need at least one residue set")
    for rs in sets:
        if rs.modulus != m:
            raise ParameterError(f"set has modulus {rs.modulus}, expected {m}")
    return [rs.mask for rs in sets]


def is_difference_disjoint(sets: Sequence[ResidueSet], m: int) -> bool:
    """True iff no nonzero residue lies in every set's difference set."""
    acc = np.ones(m, dtype=bool)
    for mask in _family_masks(sets, m):
        acc &= _difference_indicator(mask)
        if not acc[1:].any():
            return True
    return not acc[1:].any()


def translate_intersection_max(
    sets: Sequence[ResidueSet], m: int, trials: int, seed: int = 0
) -> int:
    """Max |(A_1+c_1) ∩ ... ∩ (A_n+c_n)| over seeded random translate tuples.

    Cross-validates difference-disjointness (which is equivalent to every
    translate intersection having at most one element).  A tuple stops
    drawing translates once its intersection is empty.
    """
    masks = _family_masks(sets, m)
    if trials < 0:
        raise ParameterError(f"trials must be >= 0, got {trials}")
    rng = random.Random(seed)
    worst = 0
    for _ in range(trials):
        x = np.roll(masks[0], rng.randrange(m))
        for mask in masks[1:]:
            x &= np.roll(mask, rng.randrange(m))
            if not x.any():
                break
        worst = max(worst, int(np.count_nonzero(x)))
    return worst


# ---------------------------------------------------------------------------
# sum-avoiding solvable sets


def sum_avoid_set(a: ResidueSet, k: int, q: int) -> tuple[SolvableSet, Strategy]:
    """Tuples of [q]^(k-1) whose total avoids A, with its sum-target strategy.

    Needs q - |A| = k - 1: the k-1 players split the allowed residues among
    themselves (ascending), so whichever residue the true total hits, its
    owner guesses correctly.
    """
    if k < 2:
        raise ParameterError("need k >= 2")
    if a.modulus != q:
        raise ParameterError(f"residue set has modulus {a.modulus}, expected q={q}")
    targets = np.flatnonzero(~a.mask)
    if len(targets) != k - 1:
        raise ParameterError(
            f"need q - |A| = k - 1 (q={q}, |A|={len(a)}, k={k})")
    _cells_guard(q, k - 1)
    mask = ~a.mask[_digit_sums(np.arange(q), k - 1, q)].reshape((q,) * (k - 1))
    return SolvableSet(k - 1, q, mask), sum_target_strategy(k - 1, q, targets)


# ---------------------------------------------------------------------------
# product certificates


@dataclass(frozen=True)
class BladePiece:
    solvable: SolvableSet
    strategy: Strategy


@dataclass(frozen=True)
class ProductCertificate:
    """Blueprint for a windmill strategy: per color, one solvable set with
    strategy per blade; the color's product is the complements' box.
    Construction runs `validate_certificate`, so every instance is
    well-shaped."""

    k: int
    n: int
    q: int
    products: tuple[tuple[BladePiece, ...], ...]

    def __post_init__(self) -> None:
        validate_certificate(self)


def validate_certificate(cert: ProductCertificate) -> None:
    if cert.k < 2 or cert.n < 1 or cert.q < 1:
        raise CertificateError("need k >= 2, n >= 1, q >= 1")
    if len(cert.products) != cert.q:
        raise CertificateError(
            f"certificate has {len(cert.products)} products, expected q={cert.q}")
    m = cert.k - 1
    for i, product in enumerate(cert.products):
        if len(product) != cert.n:
            raise CertificateError(f"product {i} has {len(product)} blades, expected {cert.n}")
        for j, piece in enumerate(product):
            s = piece.solvable
            if s.n != m or s.q != cert.q:
                raise CertificateError(
                    f"product {i} blade {j}: solvable set shaped ({s.n},{s.q}), "
                    f"expected ({m},{cert.q})")
            if piece.strategy.q != cert.q or len(piece.strategy.tables) != m:
                raise CertificateError(f"product {i} blade {j}: strategy shape mismatch")
            for t in range(m):
                if len(piece.strategy.tables[t]) != cert.q ** (m - 1):
                    raise CertificateError(
                        f"product {i} blade {j}: table {t} has wrong size")


def product_certificate_parity(k: int, n: int) -> ProductCertificate:
    """q = 2k-2 certificate: product x uses the parity side named by the
    x-th binary pattern on blade i (digit i-1, least significant first).

    Needs 2^n >= q so distinct colors get distinct digit patterns."""
    q = _parity_guard(k)
    if n < 1:
        raise ParameterError("need n >= 1")
    if 2**n < q:
        raise ParameterError(
            f"need 2^n >= 2k-2 so products are disjoint (k={k} needs n >= {(q - 1).bit_length()})")
    odd = parity_set_strategy(k, "odd")
    even = parity_set_strategy(k, "even")
    products = []
    for x in range(q):
        blades = []
        for i in range(n):
            bit = x >> i & 1
            # factor C_bit is the complement of the stored solvable set
            side = even if bit else odd
            blades.append(BladePiece(*side))
        products.append(tuple(blades))
    return ProductCertificate(k, n, q, tuple(products))


def product_certificate_residue(d: int, n: int) -> ProductCertificate:
    """q = d^n certificate with k = d^n - d^(n-1) + 1: product j's blade-i
    factor is the set of tuples whose total lands in A_i + j."""
    family = difference_disjoint_family(d, n)
    q = family.modulus
    k = q - d ** (n - 1) + 1
    products = []
    for j in range(q):
        blades = []
        for i in range(n):
            solvable, strat = sum_avoid_set(family.sets[i].translate(j), k, q)
            blades.append(BladePiece(solvable, strat))
        products.append(tuple(blades))
    return ProductCertificate(k, n, q, tuple(products))


def certificate_disjointness_check(cert: ProductCertificate) -> bool:
    """Products are boxes, so two are disjoint iff some blade's factors are;
    a factor pair is disjoint iff the two solvable sets union to everything."""
    for p1, p2 in itertools.combinations(cert.products, 2):
        if not any((a.solvable.mask | b.solvable.mask).all() for a, b in zip(p1, p2)):
            return False
    return True


def certificate_blade_check(cert: ProductCertificate) -> bool:
    """Every piece's strategy must win restricted to its solvable set: some
    player guesses right on every cell of the mask."""
    g = build_graph("complete", cert.k - 1)
    for product in cert.products:
        for piece in product:
            counts = correct_guess_counts(g, cert.q, piece.strategy,
                                          budget=MAX_MEMBER_ENUMERATION)
            if not counts[piece.solvable.mask.ravel()].all():
                return False
    return True


# ---------------------------------------------------------------------------
# assembly and evaluation


def _blade_flat_tables(cert: ProductCertificate) -> list[list[np.ndarray]]:
    """flat[j][t][a0 + q * mate_idx]: blade j vertex t's guess when the axle
    shows a0 — the class dispatch baked into one table."""
    return [[np.stack([p[j].strategy.tables[t] for p in cert.products], axis=1).ravel()
             for t in range(cert.k - 1)] for j in range(cert.n)]


def assemble_windmill_strategy(cert: ProductCertificate) -> Strategy:
    """Materialize the full windmill strategy as dense guess tables.

    The axle's table has q^((k-1)n) entries — anything past MAX_AXLE_TABLE
    raises InfeasibleError (use certificate_random_loss_check to sample such
    strategies instead).
    """
    if not certificate_disjointness_check(cert):
        raise CertificateError("products are not pairwise disjoint")
    k, n, q = cert.k, cert.n, cert.q
    m = k - 1
    axle_size = q ** (m * n)
    if axle_size > MAX_AXLE_TABLE:
        raise InfeasibleError(
            f"axle table needs {axle_size} entries (> {MAX_AXLE_TABLE})",
            required=axle_size)

    dt = _guess_dtype(q)
    # The axle is the C-order tensor (q^(k-1),)*n.  It reads blade vertex t
    # as base-q digit t of its blade's cell, so a blade's cells are its mask
    # raveled in F order, and blade j, the (j+1)-th least significant
    # base-q^(k-1) digit of the axle index, is axis n-1-j: color i's product
    # is the np.ix_ box of the blades' outside cells in reverse blade order.
    # The products are disjoint, so each cell is in at most one box; cells in
    # none keep the fill, class 0 (as do the cells of box 0).
    axle = np.zeros((q**m,) * n, dtype=dt)
    for i in range(1, q):
        axle[np.ix_(*(np.flatnonzero(~piece.solvable.mask.ravel(order="F"))
                      for piece in reversed(cert.products[i])))] = i

    blades = [t.astype(dt) for per_vertex in _blade_flat_tables(cert) for t in per_vertex]
    return Strategy(q, (axle.ravel(), *blades))


def _certificate_guesses(cert: ProductCertificate, colors: np.ndarray) -> np.ndarray:
    """Every vertex's guess on each row of a (T, 1 + (k-1)n) int64 color
    array, evaluated from the certificate without the axle table."""
    k, n, q = cert.k, cert.n, cert.q
    m = k - 1
    by_vertex = np.ascontiguousarray(colors.T)  # one contiguous row per vertex
    blades = [by_vertex[1 + j * m:1 + (j + 1) * m] for j in range(n)]
    in_product = np.ones((q, len(colors)), dtype=bool)
    for i, product in enumerate(cert.products):
        for piece, cols in zip(product, blades):
            in_product[i] &= ~piece.solvable.mask[tuple(cols)]
    # argmax finds the first True, or 0 when there is none: leftovers
    # go to class 0, as in the assembled axle table
    guesses = [np.argmax(in_product, axis=0)]
    # blade j and the axle form a K_k on the columns (axle, blade j), where
    # blade vertex t is vertex t + 1 and its flat table has K_k's layout
    clique = build_graph("complete", k)
    for tables, cols in zip(_blade_flat_tables(cert), blades):
        cells = _table_cells(clique, q, np.vstack((by_vertex[:1], cols)).T)
        guesses += [table[cells[:, 1 + t]] for t, table in enumerate(tables)]
    return np.stack(guesses).T


def certificate_random_loss_check(
    cert: ProductCertificate, trials: int, seed: int = 0
) -> int:
    """Count losing assignments among seeded uniform samples (expect 0).

    Samples the full assignment space of the windmill and evaluates the
    certificate's strategy vectorized, without materializing the axle table.
    """
    if trials < 0:
        raise ParameterError(f"trials must be >= 0, got {trials}")
    if not certificate_disjointness_check(cert):
        raise CertificateError("products are not pairwise disjoint")
    n_vertices = 1 + (cert.k - 1) * cert.n
    rng = np.random.default_rng(seed)

    losses = 0
    chunk = 1 << 18
    remaining = trials
    while remaining > 0:
        t_now = min(chunk, remaining)
        remaining -= t_now
        colors = rng.integers(0, cert.q, size=(t_now, n_vertices), dtype=np.int64)
        # compared vertex by vertex, the layout _certificate_guesses builds
        correct = (_certificate_guesses(cert, colors).T == colors.T).any(axis=0)
        losses += int(t_now - np.count_nonzero(correct))
    return losses


# ---------------------------------------------------------------------------
# counting inequalities behind the upper bounds


# larger checks are refused before any power is formed; on 2 vCPUs parity at
# k = 1800 takes ~1 s, and so do the largest residue chains, (6, 6) and (42, 3)
MAX_COUNTING_PARITY_K = 1800
MAX_COUNTING_BITS = 3_500_000


def parity_counting_check(k: int) -> bool:
    """Solvable sets are outnumbered: (k-1) q^(k-2) < q^(k-1) / 2 for every
    q in [2k-1, 4k], in exact integers."""
    if k < 2:
        raise ParameterError("need k >= 2")
    if k > MAX_COUNTING_PARITY_K:
        raise InfeasibleError(
            f"k = {k} exceeds the parity counting cap {MAX_COUNTING_PARITY_K}", required=k)
    return all(2 * (k - 1) * q ** (k - 2) < q ** (k - 1)
               for q in range(2 * k - 1, 4 * k + 1))


def residue_counting_check(d: int, n: int) -> bool:
    """Key inequality (d^(n-1)+1)^n > (d^n+1)^(n-1) plus the full chain
    (q+1) * ((q-k+2) (q+1)^(k-2))^n > (q+1)^((k-1)n) with q = d^n and
    k = d^n - d^(n-1) + 1; q - k + 2 = d^(n-1) + 1 is the exact complement
    count of a maximal solvable set over q+1 colors."""
    if d < 2 or n < 1:
        raise ParameterError("need d >= 2 and n >= 1")
    # the chain's largest power, (q+1)^((k-1)n), has at least `bits` bits;
    # q = d^n is not formed once it has 64 bits, where n * 2^69 bounds it
    bits = n << 69
    if n * (d.bit_length() - 1) < 64:
        bits = (d**n - d ** (n - 1)) * n * ((d**n).bit_length() - 1)
    if bits > MAX_COUNTING_BITS:
        raise InfeasibleError(
            f"the residue chain at d={d}, n={n} forms a power of at least {bits} bits, "
            f"past the {MAX_COUNTING_BITS}-bit cap", required=bits)
    q = d**n
    k = q - d ** (n - 1) + 1
    key = (d ** (n - 1) + 1) ** n > (q + 1) ** (n - 1)
    chain = (q + 1) * ((q - k + 2) * (q + 1) ** (k - 2)) ** n > (q + 1) ** ((k - 1) * n)
    return key and chain


# ---------------------------------------------------------------------------
# file format


def write_certificate_file(path: str, cert: ProductCertificate) -> None:
    write_json(path, {
        "k": cert.k,
        "n": cert.n,
        "q": cert.q,
        "products": [
            [
                {
                    "set": np.argwhere(piece.solvable.mask).tolist(),
                    "strategy": piece.strategy.table_lists(),
                }
                for piece in product
            ]
            for product in cert.products
        ],
    })


def _file_piece(piece: dict, m: int, q: int) -> BladePiece:
    """One blade from a file: its member list becomes a mask over [q]^m."""
    mask = np.zeros((q,) * m, dtype=bool)
    mask[tuple(file_rows(piece["set"], "set member", q, m).T)] = True
    return BladePiece(SolvableSet(m, q, mask),
                      Strategy.from_lists(q, file_rows(piece["strategy"], "guess table", q)))


def read_certificate_file(path: str) -> ProductCertificate:
    def parse(payload: dict) -> ProductCertificate:
        k, n, q = (file_int(payload[key], key) for key in ("k", "n", "q"))
        if k < 2 or n < 1 or q < 1:
            raise ParameterError(f"certificate file {path}: need k >= 2, n >= 1, q >= 1")
        _cells_guard(q, k - 1)
        return ProductCertificate(k, n, q, tuple(
            tuple(_file_piece(piece, k - 1, q) for piece in product)
            for product in payload["products"]))

    return read_json(path, "certificate file", parse)
