"""Reference saturation check: N_S(P), C_S(P) and N_phi scanned per element.

The library conjugates every subgroup in one pass over S, tests the
condition on N_phi once per element of Aut_S(P), and finds extensions by
looking phi up among the restrictions of Hom_F(N_phi, S)
(fusion.is_saturated).  The tests keep the loop it replaced as the oracle:
normalizer and centralizer per subgroup, the condition tested for every g
in N_S(P), and a scan of Hom_F(N_phi, S) for each map.
"""

from fusionwb.fusion import (
    CentralizedFailure,
    ExtensionFailure,
    SaturationReport,
    SylowFailure,
)
from fusionwb.groups import p_part
from group_oracle import reference_centralizer, reference_normalizer


def reference_is_saturated(F):
    """Check the Sylow and extension axioms; failures become witnesses."""
    G = F.group
    witnesses = []
    norms = {P.elements: reference_normalizer(G, P) for P in F.subgroups}
    cents = {P.elements: reference_centralizer(G, P).order
             for P in F.subgroups}
    aut_s = {key: {tuple(G.conj(g, x) for x in key) for g in N.elements}
             for key, N in norms.items()}     # images of Aut_S(P)
    max_c = {}
    for cls in F.conjugacy_classes():
        max_n = max(norms[P.elements].order for P in cls)
        top_c = max(cents[P.elements] for P in cls)
        for P in cls:
            max_c[P.elements] = top_c
            if norms[P.elements].order != max_n:
                continue
            if cents[P.elements] != top_c:
                witnesses.append(CentralizedFailure(P))
            n_s, n_f = len(aut_s[P.elements]), len(F.aut_set(P))
            if n_s != p_part(n_f, F.p):
                witnesses.append(SylowFailure(P, n_s, n_f))
    # extension axiom: phi onto a fully centralized image extends to N_phi,
    # the g in N_S(P) with phi c_g phi^-1 in Aut_S(phi(P))
    for P in F.subgroups:
        for phi in F.hom(P, F.S):
            img = phi.image_elements()
            if cents[img] != max_c[img]:
                continue
            back = dict(zip(phi.images, P.elements))
            n_phi = F.subgroup(
                g for g in norms[P.elements].elements
                if tuple(phi.image_of(G.conj(g, back[y])) for y in img)
                in aut_s[img])
            extended = any(
                all(ext.image_of(x) == phi.image_of(x) for x in P.elements)
                for ext in F.hom(n_phi, F.S))
            if not extended:
                witnesses.append(ExtensionFailure(phi, n_phi))
    return SaturationReport(not witnesses, witnesses)
