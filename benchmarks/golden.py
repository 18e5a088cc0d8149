"""Answers pinned from the library at the commit that introduced the benchmark.

A mismatch is a failed task, so refactors must keep these bytes identical.
CLI digests are SHA-256 of each invocation's stdout on the fixed corpus in
``clirun.CORPUS``; ``validate:<key>`` is ``validate -`` fed that stdout.
"""

from inputs import table_from


def _uniform(m):
    return table_from(m, lambda i, j: 1)


CLI = {
    "echelon": "9c182a0be77457a8569bb6af7fcf781594b530d3a2a18d9b654f9f92ce199911",
    "validate:echelon": "9c182a0be77457a8569bb6af7fcf781594b530d3a2a18d9b654f9f92ce199911",
    "metrize": "c57e50e3e188eb7dfb86c8d875f45ed4fea6616a702e9494626b4dbbea6096ff",
    "validate:metrize": "c57e50e3e188eb7dfb86c8d875f45ed4fea6616a702e9494626b4dbbea6096ff",
    "from-metric": "9c182a0be77457a8569bb6af7fcf781594b530d3a2a18d9b654f9f92ce199911",
    "validate:from-metric": "9c182a0be77457a8569bb6af7fcf781594b530d3a2a18d9b654f9f92ce199911",
    "amalgamate": "df37204ceb1a40392042d0735586e51310d737e4de1a0172e720305f45b0f664",
    "validate:amalgamate": "df37204ceb1a40392042d0735586e51310d737e4de1a0172e720305f45b0f664",
    "jep": "da0187d5653aec1a89a4df94ec6893bb35cd4e5e548f723af50b5604988aab82",
    "validate:jep": "da0187d5653aec1a89a4df94ec6893bb35cd4e5e548f723af50b5604988aab82",
    "katetov": "90a8810f492e89950e2959d985ed01e99b260d6fb8fbc4ca76e4afe8afd635f4",
    "validate:katetov": "90a8810f492e89950e2959d985ed01e99b260d6fb8fbc4ca76e4afe8afd635f4",
    "extend": "962cba4036614e8678ab4cb27e3fbb8009c1a7e953c318976d852da8acb44e92",
    "validate:extend": "962cba4036614e8678ab4cb27e3fbb8009c1a7e953c318976d852da8acb44e92",
    "extend-count": "77a23b120cd415e38fe08a23f4ffe98dec612f3943f0a2bd6711024874ba48f2",
    "validate:extend-count": "77a23b120cd415e38fe08a23f4ffe98dec612f3943f0a2bd6711024874ba48f2",
    "limit-sample-random": "f4526949285fb391c4f3254eb35f40bd6e4ae5aaa1608525283003bc28eef726",
    "validate:limit-sample-random": "469b739cd31b332dc27b771fad8588d2c070ce1741891fc6ed78d3728eb6e5d3",
    "limit-sample-deterministic": "8f27445d72a293cf6d1fab205744cb56ca8efd1e8d890b03c0b33834d34b680a",
    "validate:limit-sample-deterministic": "d0d7e45e1dfe4089b098228818a263447d47a0d1b9fa66386e1162279236bdee",
    "limit-bnf": "a6fa5fb9137395dbf5e03b05237d68cebc9875baf3775a64fbb3154e5ead1730",
    "validate:limit-bnf": "a6fa5fb9137395dbf5e03b05237d68cebc9875baf3775a64fbb3154e5ead1730",
    "ramsey-check": "7c2f1cd800d83e27bdef281bdef439d776c2f131babca8c72a95aa8223d49dfc",
    "validate:ramsey-check": "7c2f1cd800d83e27bdef281bdef439d776c2f131babca8c72a95aa8223d49dfc",
    "ramsey-search": "eb3eeb649a792d8b88e049bd113db3c0b9a00c447f0db0a114a288fbe96bb2f0",
    "validate:ramsey-search": "eb3eeb649a792d8b88e049bd113db3c0b9a00c447f0db0a114a288fbe96bb2f0",
    "enumerate-4": "9335255920208545180d8bae394f27a365cdf935e0bad2076ebce8864409ec5b",
    "validate:enumerate-4": "9335255920208545180d8bae394f27a365cdf935e0bad2076ebce8864409ec5b",
    "iso": "e341f2cc9bc59b99719ad921b5410b27d069e1d9d653df95f25d8c3e514830f0",
    "validate:iso": "e341f2cc9bc59b99719ad921b5410b27d069e1d9d653df95f25d8c3e514830f0",
    "graph": "85d67582ae4cbf9b8a6da389b86bfe9379a7836ec075a1bd8af02483eb7cc912",
    "validate:graph": "85d67582ae4cbf9b8a6da389b86bfe9379a7836ec075a1bd8af02483eb7cc912",
    "validate-weights": "19a1b125e1e35b27c7a90ed12572e4ae6e2d1d3a74a20efe96a6e528137ba7e8",
}

# SHA-256 of the deterministic model's labels on the first 64 points, "p/q"
# joined by commas over pairs (u, v), u < v, in lexicographic order.
DET_LABELS_N64 = "fb7b36ad94fe37dc89c4b4f284ffe60d59402cc90076d06f5f70e90a1870f1bd"

# key -> (kind, C, A, B, k, answer); ordered spaces carry the identity order.
# "check": arrow_check(C, A, B, k) is pinned (R(3,3) = 6 gives both answers).
# "search": answer is (size_cap, table of the witness witness_search returns, or None).
RAMSEY = {
    "K6-arrows-K3-over-K2": ("check", _uniform(6), _uniform(2), _uniform(3), 2, True),
    "K5-arrows-K3-over-K2": ("check", _uniform(5), _uniform(2), _uniform(3), 2, False),
    "point-edge-2": ("search", None, _uniform(1), _uniform(2), 2, (4, _uniform(3))),
    "point-edge-3": ("search", None, _uniform(1), _uniform(2), 3, (4, _uniform(4))),
    "edge-triangle-2": ("search", None, _uniform(2), _uniform(3), 2, (4, None)),
    "point-triangle-2": ("search", None, _uniform(1), _uniform(3), 2, (5, _uniform(5))),
}
