"""
Certificates: deciding the R-infinity property by constructive reduction
========================================================================

The rule engine reduces a graph through characteristic quotients and join
decompositions until a base fact applies, and records every step in a
certificate tree that an independent auditor can re-validate.
"""

import json

from raagcert import (
    audit_certificate,
    certify,
    complete_graph,
    cycle_graph,
    enumerate_graphs,
    path_graph,
    simplify,
)

# Base cases: free abelian groups are the definite negative answer.
print("K3:", certify(complete_graph(3)).verdict)
print("C5:", certify(cycle_graph(5)).verdict, "via", certify(cycle_graph(5)).rule)

# The four-cycle is strongly regular with mu = k; the certificate exposes its
# join decomposition into two edgeless pairs, each disconnected.
cert = certify(cycle_graph(4))
print(json.dumps(cert.to_dict(), indent=2))

# The independent auditor re-derives every hypothesis from the graph6 strings.
print("audit problems:", audit_certificate(cert.to_dict()))

# Reduction machinery that the rules share.  P3 is its middle vertex joined
# with an edgeless pair, so join factors reduce it to that pair.
cert = certify(path_graph(3))
print("P3:", cert.rule, "to", [child.graph for child in cert.children])
result = simplify(path_graph(3))
print("simplification of P3 ends at", result.category, "after", len(result.chain), "steps")

# A miniature exhaustive run: every non-complete graph on up to five vertices
# certifies as R-infinity, and the lone complete graph per size does not.
tally = {}
for n in range(1, 6):
    for g in enumerate_graphs(n):
        cert = certify(g)
        tally[cert.verdict] = tally.get(cert.verdict, 0) + 1
print("verdicts for all classes with at most 5 vertices:", tally)
