"""Brute-force reference implementations, independent of the package under test.

Everything here recomputes from first definitions using only the stdlib:
reduced words by exhaustive product search, Schubert polynomials by the
compatible-sequence sum and (separately) by divided differences, Stanley
polynomials by cutting reduced words into increasing runs, Schur
polynomials by tableau enumeration, slide/quasisymmetric polynomials by
filtered exponent enumeration, truncation chains by the alternating
down/up recursion at the last-descent column, Edelman–Greene tableaux by
filtering reduced words, standard tableaux by the hook length formula,
Schubert polynomials once more by reduced pipe dreams,
Schubert times a row or column Schur polynomial by Sottile's Pieri chains,
Littlewood–Richardson coefficients by counting lattice tableaux, and
Schubert times any Schur polynomial by Jacobi–Trudi over those chains.
"""

from itertools import permutations, product
from math import factorial, prod


def strip(t):
    t = tuple(t)
    while t and t[-1] == 0:
        t = t[:-1]
    return t


def pad(w, n):
    return tuple(w) + tuple(range(len(w) + 1, n + 1))


def drop_fixed(w):
    w = list(w)
    while w and w[-1] == len(w):
        w.pop()
    return tuple(w)


def swap_positions(w, a, b):
    w = list(pad(w, b))
    w[a - 1], w[b - 1] = w[b - 1], w[a - 1]
    return drop_fixed(w)


def inversions(w):
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def word_perm(word, n):
    """Apply letters left to right, each swapping the values i, i+1."""
    w = list(range(1, n + 1))
    for i in word:
        p, q = w.index(i), w.index(i + 1)
        w[p], w[q] = w[q], w[p]
    return drop_fixed(w)


def brute_reduced_words(w):
    """All minimal words for w, by trying every sequence over the alphabet."""
    w = drop_fixed(w)
    n = max(len(w), 1)
    ell = inversions(w)
    return set(
        word for word in product(range(1, n), repeat=ell) if word_perm(word, n) == w
    )


def brute_compatible(word):
    """Weakly increasing alpha with alpha_j <= rho_j, strict across rho-ascents,
    where rho is the word read right to left."""
    if not word:
        return {()}
    rho = tuple(reversed(word))
    ell = len(rho)
    out = set()
    for alpha in product(range(1, max(word) + 1), repeat=ell):
        if any(alpha[j] > alpha[j + 1] for j in range(ell - 1)):
            continue
        if any(alpha[j] > rho[j] for j in range(ell)):
            continue
        if any(rho[j] < rho[j + 1] and alpha[j] >= alpha[j + 1] for j in range(ell - 1)):
            continue
        out.add(alpha)
    return out


def brute_schubert(w):
    """Def-style Schubert polynomial: sum over words and compatible sequences."""
    terms = {}
    for word in brute_reduced_words(w):
        for alpha in brute_compatible(word):
            exps = [0] * (max(alpha) if alpha else 0)
            for i in alpha:
                exps[i - 1] += 1
            key = strip(exps)
            terms[key] = terms.get(key, 0) + 1
    return terms


def stanley_table(n, k):
    """F_w(x1..xk) for every w in S_n, by drop_fixed(w): brute_schubert's sum for 1^k x w.

    The reduced words of 1^k x w are those of w with every letter raised
    by k, so in x1..xk the bound alpha_j <= rho_j always holds.  Read
    along the word, alpha then weakly decreases, strictly at each descent
    of the word, so the letters with alpha = j make an increasing run:
    F_w(x1..xk) sums x1^m1 ... xk^mk over the reduced words of w cut into
    k increasing runs of sizes mk, ..., m1.  An increasing word is fixed
    by its letters, so runs are peeled from the right, the one of x1
    first: a run removes last letters in decreasing order, each a letter
    i whose value i + 1 sits left of i in what is left of w.  The table
    for x1..xj comes from the one for j - 1 variables, one run per step.
    """
    perms = list(permutations(range(1, n + 1)))

    def runs(q, top):
        # (what is left, run size) for each run below top peeled off q.
        yield q, 0
        for i in range(top - 1, 0, -1):
            a, b = q.index(i), q.index(i + 1)
            if b < a:
                r = list(q)
                r[a], r[b] = i + 1, i
                for left, m in runs(tuple(r), i):
                    yield left, m + 1

    peels = {q: list(runs(q, n)) for q in perms}
    # table[q] maps the exponents of the variables used so far to counts.
    table = {tuple(range(1, n + 1)): {(): 1}}
    for _ in range(k):
        new = {}
        for q in perms:
            out = {}
            for left, m in peels[q]:
                for e, c in table.get(left, {}).items():
                    e = (m,) + e
                    out[e] = out.get(e, 0) + c
            if out:
                new[q] = out
        table = new
    return {drop_fixed(q): {strip(e): c for e, c in p.items()} for q, p in table.items()}


def dd_schubert(w, n=None):
    """Schubert polynomial by divided differences down from the staircase."""
    w = drop_fixed(w)
    n = n or max(len(w), 1)
    full = pad(w, n)
    memo = {}

    def divdiff(terms, i):
        out = {}
        for exps, c in terms.items():
            e = list(exps) + [0] * (n - len(exps))
            p, q = e[i - 1], e[i]
            if p == q:
                continue
            sgn, lo, hi = (1, q, p) if p > q else (-1, p, q)
            for j in range(lo, hi):
                e2 = list(e)
                e2[i - 1], e2[i] = j, p + q - 1 - j
                key = strip(e2)
                out[key] = out.get(key, 0) + sgn * c
                if out[key] == 0:
                    del out[key]
        return out

    def rec(u):
        if u in memo:
            return memo[u]
        if inversions(u) == n * (n - 1) // 2:
            res = {tuple(range(n - 1, 0, -1)): 1}
        else:
            i = next(i for i in range(1, n) if u[i - 1] < u[i])
            up = list(u)
            up[i - 1], up[i] = up[i], up[i - 1]
            res = divdiff(rec(tuple(up)), i)
        memo[u] = res
        return res

    return rec(full)


def ssyt_schur(lam, k):
    """Schur polynomial as the generating function of semistandard tableaux."""
    rows = len(lam)
    cells = [(r, c) for r in range(rows) for c in range(lam[r])]
    terms = {}
    tab = [[0] * lam[r] for r in range(rows)]

    def fill(idx, content):
        if idx == len(cells):
            key = strip(content)
            terms[key] = terms.get(key, 0) + 1
            return
        r, c = cells[idx]
        lo = 1
        if c > 0:
            lo = max(lo, tab[r][c - 1])          # rows weakly increase
        if r > 0:
            lo = max(lo, tab[r - 1][c] + 1)      # columns strictly increase
        for v in range(lo, k + 1):
            tab[r][c] = v
            content[v - 1] += 1
            fill(idx + 1, content)
            content[v - 1] -= 1

    fill(0, [0] * k)
    return terms


def strong_descent(word):
    """Sizes of the maximal increasing runs of the word, read right to left."""
    sizes = []
    for i, x in enumerate(word):
        if i and word[i - 1] < x:
            sizes[-1] += 1
        else:
            sizes.append(1)
    return tuple(reversed(sizes))


def weak_descent(word):
    """Weak descent composition of any word, or None when it is virtual.

    Split the word into its maximal strictly increasing runs.  The first
    run's slot is its first letter; each later run's slot is the smaller
    of its first letter and one below the slot before.  The word is
    virtual when a slot falls below 1; otherwise the composition holds
    each run's size at its slot."""
    runs = []
    for i, x in enumerate(word):
        if i and word[i - 1] < x:
            runs[-1].append(x)
        else:
            runs.append([x])
    slots = []
    for run in runs:
        slots.append(run[0] if not slots else min(run[0], slots[-1] - 1))
    if slots and slots[-1] < 1:
        return None
    comp = [0] * (slots[0] if slots else 0)
    for slot, run in zip(slots, runs):
        comp[slot - 1] = len(run)
    return tuple(comp)


def flat(a):
    return tuple(x for x in a if x)


def refines(beta, alpha):
    """alpha arises by summing consecutive blocks of beta."""
    beta, alpha = tuple(beta), tuple(alpha)
    if not alpha:
        return not beta
    acc = 0
    for i, b in enumerate(beta):
        acc += b
        if acc == alpha[0]:
            return refines(beta[i + 1:], alpha[1:])
        if acc > alpha[0]:
            return False
    return False


def dominates(b, a):
    sb = sa = 0
    for i in range(max(len(a), len(b))):
        sb += b[i] if i < len(b) else 0
        sa += a[i] if i < len(a) else 0
        if sb < sa:
            return False
    return True


def weak_compositions(total, length):
    if length == 0:
        if total == 0:
            yield ()
        return
    for head in range(total + 1):
        for rest in weak_compositions(total - head, length - 1):
            yield (head,) + rest


def brute_slide(a):
    """Monomials of the slide polynomial: dominating b whose flat refines flat(a)."""
    a = tuple(a)
    return {
        strip(b): 1
        for b in weak_compositions(sum(a), len(a))
        if dominates(b, a) and refines(flat(b), flat(a))
    }


def brute_fqs(alpha, k):
    """Monomials of the fundamental quasisymmetric polynomial in k variables."""
    alpha = tuple(alpha)
    return {
        strip(b): 1
        for b in weak_compositions(sum(alpha), k)
        if refines(flat(b), alpha)
    }


def partitions(total, largest=None):
    """Every partition of total with no part above largest, in decreasing order."""
    if total == 0:
        yield ()
        return
    for first in range(min(total, total if largest is None else largest), 0, -1):
        for rest in partitions(total - first, first):
            yield (first,) + rest


def grassmannian(lam, k):
    """The permutation with i + lam_{k-i+1} at each i <= k, the other values after it in order."""
    full = tuple(lam) + (0,) * (k - len(lam))
    front = tuple(i + full[k - i] for i in range(1, k + 1))
    n = k + (lam[0] if lam else 0)
    rest = sorted(set(range(1, n + 1)) - set(front))
    return drop_fixed(front + tuple(rest))


def edelman_greene(v, words=None):
    """Edelman–Greene counts of v: shape lam -> number of its EG tableaux.

    A reduced word of v (of v itself, in word_perm's convention, not of
    v^-1) fills the shape lam of its length row by row, the bottom row
    first, each row left to right.  The filling is an Edelman–Greene
    tableau when it increases strictly along every row and down every
    column.  words defaults to brute_reduced_words(v); pass the same set
    found another way to skip the product search.  Shapes with no
    tableau are left out.
    """
    if words is None:
        words = brute_reduced_words(v)
    counts = {}
    for lam in partitions(inversions(drop_fixed(v))):
        # Row r starts at starts[r] in the reading word.
        starts = [sum(lam[r + 1 :]) for r in range(len(lam))]
        n = sum(
            all(
                (c == 0 or word[starts[r] + c - 1] < word[starts[r] + c])
                and (r == 0 or word[starts[r - 1] + c] < word[starts[r] + c])
                for r in range(len(lam))
                for c in range(lam[r])
            )
            for word in words
        )
        if n:
            counts[lam] = n
    return counts


def hook_count(lam):
    """f^lam, the number of standard tableaux of shape lam, by the hook length formula."""
    conj = [sum(1 for part in lam if part > c) for c in range(lam[0] if lam else 0)]
    hooks = prod(part - c + conj[c] - r - 1 for r, part in enumerate(lam) for c in range(part))
    return factorial(sum(lam)) // hooks


def last_descent(w):
    w = drop_fixed(w)
    return max((i for i in range(1, len(w)) if w[i - 1] > w[i]), default=None)


def pipe_dreams(w, rows=None):
    """The reduced pipe dreams of w, each a tuple of its crosses (i, j), row i, column j.

    Bergeron and Billey, "RC-graphs and Schubert polynomials",
    Experimental Math. 1993.  With n = len(w), the cells are the (i, j)
    with i + j <= n, read in order: rows from the top, each right to
    left.  A cross at (i, j) is the letter a = i + j - 1 and contributes
    x_i.  The convention: the crossed letters, applied in reading order
    as s_a on positions (swapping the entries at a and a + 1) starting
    from the identity, must make a reduced word of w itself, not of
    w^-1.  Read backwards they are a reduced word of w in word_perm's
    convention.  S_w is the sum over the dreams of the product of their
    x_i.  With rows given, only the dreams with every cross in rows
    1..rows are kept, and their sum is S_w(x1..x_rows, 0, ...).

    The search walks the cells depth first and takes a cross only when
    it lengthens the partial product u and the inversion it adds, a pair
    of values, is an inversion of w too; so u stays below w in the weak
    order, and the search stops at length(w), where u must be w.  Cells
    past row i carry only letters above i, so once row i is done u must
    already agree with w at position i.
    """
    w = pad(drop_fixed(w), 1)
    n = len(w)
    where = {x: i for i, x in enumerate(w)}
    ell = inversions(w)
    last = n - 1 if rows is None else min(rows, n - 1)
    cells = [(i, j) for i in range(1, last + 1) for j in range(n - i, 0, -1)]
    u = list(range(1, n + 1))
    crosses = []
    out = []

    def go(t):
        if len(crosses) == ell:
            if tuple(u) == w:
                out.append(tuple(crosses))
            return
        if len(cells) - t < ell - len(crosses):
            return
        i, j = cells[t]
        if j == n - i and i > 1 and u[i - 2] != w[i - 2]:
            return
        a = i + j - 1
        x, y = u[a - 1], u[a]
        if x < y and where[y] < where[x]:
            u[a - 1], u[a] = y, x
            crosses.append((i, j))
            go(t + 1)
            crosses.pop()
            u[a - 1], u[a] = x, y
        go(t + 1)

    go(0)
    return out


def dream_polynomial(dreams):
    """The sum over dreams of the product of x_i over their crosses, as exponent tuples."""
    out = {}
    for dream in dreams:
        exps = [0] * max((i for i, _ in dream), default=0)
        for i, _ in dream:
            exps[i - 1] += 1
        key = tuple(exps)
        out[key] = out.get(key, 0) + 1
    return out


def alternating_chains(w):
    """Down/up chains at the last-descent column, stopping once the descent clears.

    Each chain is a tuple of transpositions (k,b1)(a1,k)(k,b2)(a2,k)... applied
    left to right; the down step always targets the largest position carrying a
    value below the current one at column k, and ups are covering moves from
    columns left of k.
    """
    w = drop_fixed(w)
    k = last_descent(w)
    out = []

    def rec(u, steps):
        uu = pad(u, k + 1)
        if uu[k - 1] < uu[k]:
            out.append(tuple(steps))
            return
        b = max(j for j in range(k + 1, len(uu) + 1) if uu[j - 1] < uu[k - 1])
        v = swap_positions(u, k, b)
        assert inversions(v) == inversions(drop_fixed(u)) - 1
        for a in range(1, k):
            up = swap_positions(v, a, k)
            if inversions(up) == inversions(v) + 1:
                rec(up, steps + [(k, b), (a, k)])

    rec(w, [])
    return out


def chain_end(w, steps):
    u = drop_fixed(w)
    for a, b in steps:
        u = swap_positions(u, a, b)
    return u


def covers(w, a, b):
    """Whether w (a, b), for a < b, is one longer than w: w_a < w_b, none between."""
    w = pad(w, b)
    return w[a - 1] < w[b - 1] and not any(w[a - 1] < x < w[b - 1] for x in w[a : b - 1])


def pieri(u, p, k, column=False):
    """Sottile's Pieri rule: S_u s_lam(x1..xk) for lam = (p), or (1^p) when column.

    Returns perm -> coefficient, the number of chains
    u -> u (a_1 b_1) -> ... -> u (a_1 b_1) ... (a_p b_p), with the
    transpositions applied on positions left to right, in which every
    step is a covering (one longer than the step before) with
    a_i <= k < b_i.  For the row (p): a_1 >= a_2 >= ... >= a_p and the
    b_i are distinct.  For the column (1^p): b_1 <= b_2 <= ... <= b_p and
    the a_i are distinct.  (Sottile, "Pieri's formula for flag manifolds
    and Schubert polynomials", Ann. Inst. Fourier 1996.)
    """
    out = {}

    def walk(w, steps):
        if len(steps) == p:
            out[w] = out.get(w, 0) + 1
            return
        for a in range(1, k + 1):
            for b in range(k + 1, max(len(w), k) + 2):
                if steps:
                    last_a, last_b = steps[-1]
                    if column:
                        ok = b >= last_b and all(a != x for x, _ in steps)
                    else:
                        ok = a <= last_a and all(b != y for _, y in steps)
                    if not ok:
                        continue
                if covers(w, a, b):
                    walk(swap_positions(w, a, b), steps + [(a, b)])

    walk(drop_fixed(u), [])
    return out


def lr_tableaux(nu, mu, lam, lattice=True):
    """c^nu_{lam, mu}: the Littlewood–Richardson tableaux of shape nu/mu and content lam.

    Counts the fillings of the skew shape nu/mu with lam_i entries i that
    weakly increase along each row and strictly increase down each column,
    and whose reading word (the rows from the top, each read right to left)
    is a lattice word: every prefix holds at least as many i as i + 1.
    lattice=False drops that last condition.  0 unless mu fits in nu.
    """
    mu = tuple(mu) + (0,) * (len(nu) - len(mu))
    if len(mu) > len(nu) or any(m > n for m, n in zip(mu, nu)):
        return 0
    if sum(nu) != sum(mu) + sum(lam):
        return 0
    cells = [(r, c) for r in range(len(nu)) for c in range(mu[r], nu[r])]
    filling = {}
    count = 0

    def fill(i, left):
        nonlocal count
        if i == len(cells):
            word = [filling[r, c] for r in range(len(nu)) for c in range(nu[r] - 1, mu[r] - 1, -1)]
            if not lattice or all(
                word[:j].count(x) >= word[:j].count(x + 1)
                for j in range(1, len(word) + 1)
                for x in range(1, len(lam))
            ):
                count += 1
            return
        r, c = cells[i]
        for x in range(1, len(lam) + 1):
            if not left[x - 1]:
                continue
            if c > mu[r] and filling[r, c - 1] > x:
                continue
            if r > 0 and c < nu[r - 1] and c >= mu[r - 1] and filling[r - 1, c] >= x:
                continue
            filling[r, c] = x
            left[x - 1] -= 1
            fill(i + 1, left)
            left[x - 1] += 1

    fill(0, list(lam))
    return count


def jacobi_trudi(u, lam, k, column=False):
    """S_u s_lam(x1..xk) for any partition lam, by Jacobi–Trudi over the Pieri rule.

    s_lam = det[h_{lam_i - i + j}] with h_p = s_(p), h_0 = 1 and h_p = 0
    for p < 0 (Macdonald, Symmetric Functions and Hall Polynomials, I
    (3.4)), so the product is the sum over sigma in S_l of
    sgn(sigma) S_u h_{lam_1 - 1 + sigma(1)} ... h_{lam_l - l + sigma(l)}.
    Each h_p is applied to each term by pieri, cached per (w, p); the
    signs cancel exactly, and a zero coefficient is dropped.  column=True
    applies e_p = s_(1^p) in place of h_p, which gives the product with
    s_lam' for lam' the conjugate of lam instead.
    """
    cache = {}

    def times_h(poly, p):
        out = {}
        for w, c in poly.items():
            if (w, p) not in cache:
                cache[w, p] = pieri(w, p, k, column)
            for x, d in cache[w, p].items():
                out[x] = out.get(x, 0) + c * d
        return out

    ell = len(lam)
    total = {}
    for sigma in permutations(range(1, ell + 1)):
        degrees = [lam[i] - (i + 1) + sigma[i] for i in range(ell)]
        if min(degrees, default=0) < 0:
            continue
        sign = (-1) ** inversions(sigma)
        poly = {drop_fixed(u): 1}
        for p in degrees:
            poly = times_h(poly, p)
        for w, c in poly.items():
            total[w] = total.get(w, 0) + sign * c
    return {w: c for w, c in sorted(total.items()) if c}
