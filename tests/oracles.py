"""Brute-force reference implementations, independent of the package under test.

Everything here recomputes from first definitions using only the stdlib:
reduced words by exhaustive product search, Schubert polynomials by the
compatible-sequence sum and (separately) by divided differences, Schur
polynomials by tableau enumeration, slide/quasisymmetric polynomials by
filtered exponent enumeration, and truncation chains by the alternating
down/up recursion at the last-descent column.
"""

from itertools import product


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


def last_descent(w):
    w = drop_fixed(w)
    return max((i for i in range(1, len(w)) if w[i - 1] > w[i]), default=None)


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
