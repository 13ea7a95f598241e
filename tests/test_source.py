"""Limits on the package source itself."""

from __future__ import annotations

import pathlib
import tokenize

import dynacct

PARSER_TOKEN_STEP = 8192


def significant_tokens(path: pathlib.Path) -> int:
    """Tokens the parser keeps: all but ENCODING, COMMENT and NL."""
    skip = (tokenize.ENCODING, tokenize.COMMENT, tokenize.NL)
    with open(path, "rb") as fh:
        return sum(1 for tok in tokenize.tokenize(fh.readline)
                   if tok.type not in skip)


def test_modules_stay_under_the_parser_token_step():
    """CPython's parser keeps a module's tokens in one array that doubles
    when it passes 8,192 entries.  Running from source without bytecode
    caches, every process compiles the package, so one module past the step
    raises the peak memory of every run by about 0.7 MB, whatever the change
    that pushed it there.  Split a module before it reaches the step."""
    package = pathlib.Path(dynacct.__file__).parent
    sizes = {p.name: significant_tokens(p) for p in sorted(package.glob("*.py"))}
    assert len(sizes) >= 8
    over = {name: k for name, k in sizes.items() if k >= PARSER_TOKEN_STEP}
    assert not over, f"modules at or past {PARSER_TOKEN_STEP} tokens: {over}"
