"""Dead-surface scan: print `Module.name  (file.mli)` for every `val` in
lib/**/*.mli that nothing reads, and exit 1 if it printed anything.

A value is read when some file in lib/, bin/, bench/, seussbench/ or
test/ names it qualified (`M.name`, or through a `module X = ...M`
alias), or mentions it at all while `open`ing M, or when its own .ml
mentions it a second time. A submodule's names count as M's.

Run from the repository root: python3 test/dead_surface.py
"""
import glob
import os
import re
import sys

srcs = [f for d in ("lib", "bin", "bench", "seussbench", "test")
        for f in glob.glob(d + "/**/*.ml", recursive=True) if "lint_fixtures" not in f]
text = {f: open(f).read() for f in srcs}
dead = 0
for mli in sorted(glob.glob("lib/**/*.mli", recursive=True)):
    sig = open(mli).read(); m = os.path.basename(mli)[:-4].capitalize(); own = mli[:-1]
    quals = {m} | set(re.findall(r"^\s*module (\w+)", sig, re.M)) | {
        a for t in text.values()
        for a in re.findall(r"^\s*module (\w+) = [\w.]*\b%s\s*$" % m, t, re.M)}
    q = "|".join(sorted(quals))
    for name in re.findall(r"^\s*val (\w+)", sig, re.M):
        if not any(len(re.findall(r"(?<![\w.'])%s\b" % name, t)) > 1 if f == own
                   else re.search(r"\b(%s)\.%s\b" % (q, name), t)
                   or (re.search(r"\bopen [\w.]*\b%s\b" % m, t) and re.search(r"\b%s\b" % name, t))
                   for f, t in text.items()):
            print("%s.%s  (%s)" % (m, name, mli))
            dead += 1
sys.exit(1 if dead else 0)
