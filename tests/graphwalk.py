"""Walks over a recorded autodiff graph, for the tests of what it keeps alive."""
from taxossm import numcore as nc
from taxossm.numcore import Tensor


def tensors_in_closure(fn):
    """The Tensors a function reaches through its closure cells, the containers
    in them and the closures of the functions in them."""
    found, seen, stack = [], set(), [fn]
    while stack:
        v = stack.pop()
        if id(v) in seen:
            continue
        seen.add(id(v))
        if isinstance(v, Tensor):
            found.append(v)
        elif isinstance(v, (tuple, list)):
            stack.extend(v)
        elif isinstance(v, dict):
            stack.extend(v.values())
        elif callable(v):
            stack.extend(c.cell_contents for c in getattr(v, "__closure__", None) or ())
    return found


def graph_vertices(t: Tensor):
    """Every vertex of the graph that ends at `t`."""
    seen, stack = {}, [t._fn]
    while stack:
        v = stack.pop()
        if isinstance(v, nc._Fn) and id(v) not in seen:
            seen[id(v)] = v
            stack.extend(v.parents)
    return list(seen.values())
