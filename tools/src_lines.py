"""Count the lines of `src/ctmdist` by kind: code, docstring, comment, blank.

    python3 tools/src_lines.py [directory]

Standard library only.  Each line is classified from its tokens:
- docstring: part of a string that stands alone as a statement (a
  docstring), blank lines inside it included
- code: holds any other token, even with a trailing comment
- comment: holds only a comment
- blank: holds nothing
"""

import glob
import io
import os
import sys
import tokenize

LAYOUT = (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)


def classify(source: str) -> dict[str, int]:
    kind: dict[int, str] = {}
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    prev = tokenize.NEWLINE  # the last token that is not a comment or NL
    for tok, nxt in zip(tokens, tokens[1:]):
        lines = range(tok.start[0], tok.end[0] + 1)
        if tok.type == tokenize.STRING and prev in LAYOUT and nxt.type == tokenize.NEWLINE:
            for ln in lines:
                kind.setdefault(ln, "docstring")
        elif tok.type == tokenize.COMMENT:
            kind.setdefault(tok.start[0], "comment")
        elif tok.type not in LAYOUT:
            kind.update(dict.fromkeys(lines, "code"))
        if tok.type not in (tokenize.COMMENT, tokenize.NL):
            prev = tok.type
    counts = dict.fromkeys(("code", "docstring", "comment", "blank"), 0)
    for ln, text in enumerate(source.splitlines(), 1):
        counts[kind.get(ln, "blank" if not text.strip() else "code")] += 1
    return counts


def main() -> None:
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    directory = sys.argv[1] if len(sys.argv) > 1 else os.path.join(root, "src", "ctmdist")
    total = dict.fromkeys(("code", "docstring", "comment", "blank"), 0)
    for path in sorted(glob.glob(os.path.join(directory, "*.py"))):
        with open(path, encoding="utf-8") as f:
            for k, v in classify(f.read()).items():
                total[k] += v
    print(" ".join(f"{k} {v}" for k, v in total.items()), f"total {sum(total.values())}")


if __name__ == "__main__":
    main()
