"""Small graph helpers shared by the tests; the package has no use for them."""


def has_edge(g, u: int, v: int) -> bool:
    """Whether u ~ v in the LabeledGraph g (u == v asks for a loop)."""
    return bool((g.rows[u] >> v) & 1)
