"""The parser's tokens read one character at a time: a reference for positions.

``polynomials._Parser`` keeps each token as its text and finds a position
only when it raises.  This module reads the text character by character
and keeps every token as (kind, text, position), the end of input as
("end", "", len(text)), so the tests can check the token texts and that
each ``ParseError`` sits at a token start or at the end.
"""

from __future__ import annotations

from localzeta import ParseError

TOKEN_CHARS = {"x", "+", "-", "*", "^", "/", "(", ")"}


def tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdecimal():  # exactly the digits int() accepts
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
        elif ch in TOKEN_CHARS:
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens
