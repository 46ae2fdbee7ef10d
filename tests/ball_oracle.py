"""Reference ball enumeration: every candidate word reduced from scratch.

The library tabulates each edge's coset transversal once per presentation
and grows the ball by multiplying on the left, one crossing or head
syllable at a time, on tails it interns and spells once
(models.ball_enumerate).  The tests keep the forms they replaced as the
oracles: the pinch loop over a whole word, the normal form that searches
min(a * s) over the edge subgroup for every syllable, the ball that
reduces each frontier word plus one letter on the right with them, and
the fusion recovery that reduces w x w^-1 for every ball word w and every
x in S (models.recover_fusion conjugates by single letters only).
"""

from fusionwb.errors import RadiusBoundExceeded
from fusionwb.fusion import generate_fusion
from fusionwb.groups import InjHom, lattice
from fusionwb.models import MAX_RADIUS, ModelWord, _alphabet, _emit


def reference_reduced_path(word):
    """Syllables s_0..s_k and halves h_1..h_k of the word's pinch-free path."""
    halves = word.model.halves
    paths = word.model.paths
    svals, ts = [0], []
    for letter in word.letters:
        for h, table, x in paths[letter]:
            if h is not None:
                if ts and ts[-1] == h ^ 1 and svals[-1] in halves[h ^ 1].sub:
                    # pinch: the syllable between h^1 and h lies in the edge
                    # subgroup, so it crosses back and merges to the left
                    moved = halves[ts.pop()].sub[svals.pop()]
                    svals[-1] = table[svals[-1]][moved]
                else:
                    ts.append(h)
                    svals.append(0)
            if x:
                svals[-1] = table[svals[-1]][x]
    return svals, ts


def reference_canonical(m, svals, ts):
    """Push coset parts leftward: each s_j becomes min(a * s_j), a in the
    edge subgroup before it, and the part it drops crosses that edge."""
    for j in range(len(ts), 0, -1):
        half = m.halves[ts[j - 1]]
        here, t = m.vertices[half.arrive], m.rows[half.arrive]
        s = svals[j]
        rep = min(t[a][s] for a in half.sub)
        carried = t[s][here.inv(rep)]   # s = carried * rep
        svals[j] = rep
        there = m.rows[half.depart]
        svals[j - 1] = there[svals[j - 1]][half.sub[carried]]


def reference_reduce(word, canonical=False):
    svals, ts = reference_reduced_path(word)
    if canonical:
        reference_canonical(word.model, svals, ts)
    return ModelWord(word.model, _emit(word.model, svals, ts))


def reference_ball(pres, radius):
    """Normal forms of all elements spelled by <= radius letters."""
    if radius > MAX_RADIUS:
        raise RadiusBoundExceeded(f"radius {radius} exceeds {MAX_RADIUS}")
    alphabet = _alphabet(pres)
    empty = ModelWord(pres, ())
    reps = {(): empty}
    frontier = [empty]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for letter in alphabet:
                cand = reference_reduce(ModelWord(pres, w.letters + (letter,)),
                                        canonical=True)
                if cand.letters not in reps:
                    reps[cand.letters] = cand
                    nxt.append(cand)
        frontier = nxt
    return sorted(reps.values(), key=lambda w: (len(w.letters), w.letters))


def reference_recover_fusion(pres, S, radius):
    """The system the maps c_w: x -> w x w^-1 generate, for every word w of
    the reference ball, each on the x of S that it keeps in S."""
    maps = []
    for w in reference_ball(pres, radius):
        conj = {}
        for x in S.elements:
            svals, ts = reference_reduced_path(
                w.concat(pres.s_word([x])).concat(w.inverse()))
            if not ts and svals[0] in pres.s_back:
                conj[x] = pres.s_back[svals[0]]
        maps.append(InjHom(lattice(S.parent).by_key[tuple(conj)], S,
                           list(conj.values())))
    return generate_fusion(S, pres.p, maps)
