"""The oracles in conftest.py share no code with the kernel they check."""

import ast

import conftest

# the oracles the kernel is compared with bit for bit
ORACLES = ("solve_inverse", "prox_oracle", "prox_vector_oracle", "lane_dot",
           "lane_norm", "refresh_oracle", "coordinate_step", "gaita_update",
           "sweep_oracle", "plain_run")
# the kernel's handles, and the library names that call them
KERNEL = {"_csweep", "lq_sweep", "lq_prox", "lq_parse", "lq_refresh", "lq_dot",
          "prox_vector", "prox_scalar", "_sweep", "_refresh", "_norm",
          "_distance", "_rmse_vs", "read_array"}


def names(node):
    """Every name, attribute and constant under node."""
    return {getattr(n, "id", getattr(n, "attr", getattr(n, "value", None)))
            for n in ast.walk(node)}


def test_oracles_never_reach_the_kernel():
    with open(conftest.__file__) as fh:
        tree = ast.parse(fh.read())
    defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    assert not {a.name.split(".")[-1] for n in tree.body
                if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names} & KERNEL
    for oracle in ORACLES:
        seen, todo = set(), [oracle]
        while todo:  # the oracle and every conftest function it refers to
            name = todo.pop()
            seen.add(name)
            used = names(defs[name])
            assert not used & KERNEL, (oracle, name, used & KERNEL)
            todo += sorted((used & defs.keys()) - seen)
