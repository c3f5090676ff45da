"""Line counts per library, run from the repository root:

    python3 test/loc.py [PATH...]

Prints a Markdown table with one row per PATH (a directory, searched
recursively, or a file; by default each lib/<library> and bin/) and a
total: the .ml and .mli lines as they are (raw), and the lines of code
only. A line of code holds something other than blanks outside comments:
OCaml's nested (* *) comments are skipped, string and character literals
(in code or in a comment, where the compiler lexes them too) are followed
so that a "(*" or "*)" inside one does not count, and blank and
comment-only lines are not counted.
"""
import glob
import os
import re
import sys

CHAR = re.compile(r"'(\\([\\'\"ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2}|o[0-3][0-7]{2})|[^\\'\n])'")
QUOTED = re.compile(r"\{([a-z_]*)\|")


def code_lines(text):
    """The lines of [text] that hold code outside comments."""
    depth = 0  # comment nesting
    closer = None  # the end of the string literal we are in, if any
    count = 0
    for line in text.split("\n"):
        code = False
        i = 0
        while i < len(line):
            if closer is not None:
                if closer == '"' and line[i] == "\\":
                    i += 2
                    continue
                if line.startswith(closer, i):
                    i += len(closer)
                    closer = None
                else:
                    i += 1
                code = code or depth == 0
                continue
            if line.startswith("(*", i):
                depth += 1
                i += 2
                continue
            if depth > 0 and line.startswith("*)", i):
                depth -= 1
                i += 2
                continue
            c = line[i]
            quoted = QUOTED.match(line, i)
            char = CHAR.match(line, i) if c == "'" else None
            if c == '"':
                closer, i = '"', i + 1
            elif quoted:
                closer, i = "|" + quoted.group(1) + "}", quoted.end()
            elif char:
                i = char.end()
            else:
                i += 1
                if c.isspace():
                    continue
            code = code or depth == 0
        count += code
    return count


def sources(path):
    if os.path.isfile(path):
        return [path]
    return sorted(
        f
        for ext in ("ml", "mli")
        for f in glob.glob(os.path.join(path, "**", "*." + ext), recursive=True)
    )


def main(paths):
    if not paths:
        paths = sorted(glob.glob("lib/*/")) + ["bin/"]
    print("| path | raw lines | code lines |")
    print("|---|---:|---:|")
    total_raw = total_code = 0
    for path in paths:
        raw = code = 0
        for f in sources(path):
            text = open(f).read()
            raw += text.count("\n")
            code += code_lines(text)
        total_raw += raw
        total_code += code
        print(f"| {path.rstrip('/')} | {raw} | {code} |")
    print(f"| total | {total_raw} | {total_code} |")


if __name__ == "__main__":
    main(sys.argv[1:])
