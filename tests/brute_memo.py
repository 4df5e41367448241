"""A memo around the brute-force oracle, put in from outside it.

The oracle transcribes the definitions with no caching and calls itself
through module globals, so one query re-derives the same brute answers many
times over.  ``install`` wraps every ``brute_*``, ``_brute_rank`` and
``_brute_undefeated`` of ``ceaf.oracle`` in a memo, which keeps ``oracle.py``
cache-free.  The test session (``tests/conftest.py``) and the release sweep
(``scripts/release_oracle_sweep.py``) both install it.
"""

import functools

from ceaf import Arg, oracle

BRUTE = sorted(
    name
    for name in vars(oracle)
    if name.startswith("brute_") or name in ("_brute_rank", "_brute_undefeated")
)


def memoise_brute(fn):
    """``fn`` answering each question once while its table lives.  The key is
    the framework object's id with the arguments, each set-like one as a
    frozenset; every entry holds its framework, so no id is reused while the
    table lives.  A list answer comes back as a fresh copy; a call that raises
    stores nothing."""
    table = {}

    @functools.wraps(fn)
    def memo(fw, *args, **kwargs):
        canon = tuple(a if isinstance(a, (Arg, str)) else frozenset(a) for a in args)
        key = (id(fw), canon, tuple(sorted(kwargs.items())))
        try:
            answer = table[key][1]
        except KeyError:
            answer = fn(fw, *canon, **kwargs)
            table[key] = (fw, answer)
        return list(answer) if isinstance(answer, list) else answer

    memo.table = table
    return memo


def install() -> None:
    """Wrap each brute function of ``ceaf.oracle`` in a memo."""
    for name in BRUTE:
        setattr(oracle, name, memoise_brute(getattr(oracle, name)))


def clear() -> None:
    """Empty every memo table, releasing the frameworks they hold."""
    for name in BRUTE:
        getattr(oracle, name).table.clear()
