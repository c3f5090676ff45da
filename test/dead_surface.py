"""Dead-surface scans, run from the repository root:

    python3 test/dead_surface.py

1. Dead values: print `Module.name  (file.mli)` for every `val` in
   lib/**/*.mli that nothing reads. A value is read when some file in
   lib/, bin/, bench/, seussbench/ or test/ names it qualified (`M.name`,
   or through a `module X = ...M` alias), or mentions it at all while
   `open`ing M, or when its own .ml mentions it a second time. A
   submodule's names count as M's.

2. Test-only surface: every entry that only test/ reaches, checked
   against the committed test/test_only_surface.txt (one kept entry per
   line, `entry — reason`). An entry is
   - `Module.name`: a lib/**/*.mli value that test/ reads and no other
     program file does (lib/, bin/, bench/, seussbench/, examples/, or a
     second mention in its own .ml);
   - `Module.name ?label`: an optional argument of such a value that some
     test passes (`~label`/`?label` at a call) and no other program file
     does;
   - `Module.type.field`: a field of a record type that the .mli gives a
     `default*` value, which some test sets in a record expression and no
     other program file does (the defining .ml's own default literal does
     not count).
   Each unlisted entry is printed as `test-only: <entry>`, each listed
   entry the scan no longer finds as `stale keep: <entry>`.

Exits 1 when either scan printed anything.
"""
import glob
import os
import re
import sys

PROGRAM = ("lib", "bin", "bench", "seussbench", "examples")
LIST = "test/test_only_surface.txt"


def sources(dirs):
    return {f: open(f).read() for d in dirs
            for f in glob.glob(d + "/**/*.ml", recursive=True)
            if "lint_fixtures" not in f}


program = sources(PROGRAM)
tests = sources(("test",))
everything = {**sources(("lib", "bin", "bench", "seussbench")), **tests}
mlis = sorted(glob.glob("lib/**/*.mli", recursive=True))


def module_of(mli):
    return os.path.basename(mli)[:-4].capitalize()


quals = {}


def qualifiers(mli, sig):
    if mli not in quals:
        m = module_of(mli)
        quals[mli] = "|".join(sorted(
            {m} | set(re.findall(r"^\s*module (\w+)", sig, re.M)) | {
                a for t in everything.values()
                for a in re.findall(
                    r"^\s*module (\w+) = [\w.]*\b%s\s*$" % m, t, re.M)}))
    return quals[mli]


def code_only(t):
    """[t] with comments, string and character literals blanked."""
    out, i, n, depth = [], 0, len(t), 0
    while i < n:
        if t.startswith("(*", i):
            depth += 1
            i += 2
        elif depth and t.startswith("*)", i):
            depth -= 1
            i += 2
        elif t[i] == '"':
            i += 1
            while i < n and t[i] != '"':
                i += 2 if t[i] == "\\" else 1
            i += 1
            if not depth:
                out.append('""')
        elif re.match(r"'(\\.[^']*|[^\\'])'", t[i:i + 8]) and (
                i == 0 or not (t[i - 1].isalnum() or t[i - 1] == "_")):
            i = t.index("'", i + 2) + 1
        elif t.startswith("{|", i):
            i = t.index("|}", i) + 2
        else:
            if not depth:
                out.append(t[i])
            i += 1
    return "".join(out)


class Index:
    """One file's names: its `X.y` pairs, bare (unqualified) names with
    their counts, every word, and the module path components it
    opens."""

    def __init__(self, t):
        t = code_only(t)
        self.pairs = set(re.findall(r"(\w+)(?=\.(\w+))", t))
        self.bare = {}
        for w in re.findall(r"(?<![\w.'])(\w+)", t):
            self.bare[w] = self.bare.get(w, 0) + 1
        self.words = set(re.findall(r"\w+", t))
        self.opens = {c for p in re.findall(r"\bopen ([\w.]+)", t)
                      for c in p.split(".")}


index = {f: Index(t) for f, t in {**everything, **program}.items()}


def reads(mli, sig, name, files):
    """Files of [files] that read [name]: the scan-1 rule."""
    m, own = module_of(mli), mli[:-1]
    q = qualifiers(mli, sig).split("|")

    def qualified(ix):
        return any((x, name) in ix.pairs for x in q)

    return [f for f, ix in ((f, index[f]) for f in files)
            if (ix.bare.get(name, 0) > 1 or qualified(ix) if f == own
                else qualified(ix) or (m in ix.opens and name in ix.words))]


# {1 Scan 1: dead values}

dead = 0
for mli in mlis:
    sig = open(mli).read()
    for name in re.findall(r"^\s*val (\w+)", sig, re.M):
        if not reads(mli, sig, name, everything):
            print("%s.%s  (%s)" % (module_of(mli), name, mli))
            dead += 1


# {1 Scan 2: test-only surface}

STOP = re.compile(r"\b(in|then|else|do|done|let|and|with|begin|end)\b")
LABEL = re.compile(r"[~?](\w+)")


def labels_at_depth0(t, start):
    """The `~l`/`?l` labels applied at the top level of the application
    whose head ends at [start]."""
    depth, i, found = 0, start, set()
    end = min(len(t), start + 1200)
    while i < end:
        c = t[i]
        if t.startswith("(*", i):
            j = t.find("*)", i)
            i = end if j < 0 else j + 2
            continue
        if c == '"':
            j = i + 1
            while j < end and t[j] != '"':
                j += 2 if t[j] == "\\" else 1
            i = j + 1
            continue
        if c in "([{":
            depth += 1
        elif c in ")]}":
            if depth == 0:
                break
            depth -= 1
        elif depth == 0:
            if c in ";|" or t.startswith("->", i) or t.startswith("\n\n", i):
                break
            if STOP.match(t, i) and not t[i - 1].isalnum() \
                    and t[i - 1] not in "_'.~?":
                break
            mt = LABEL.match(t, i)
            if mt and (i == 0 or not (t[i - 1].isalnum() or t[i - 1] in "_')")):
                found.add(mt.group(1))
                i += len(mt.group(0))
                continue
        i += 1
    return found


def passed(mli, sig, name, files):
    """Optional labels passed to [name] at its calls in [files]."""
    m, own = module_of(mli), mli[:-1]
    q = qualifiers(mli, sig)
    out = set()
    for f, t in files.items():
        pat = r"\b(?:%s)\.%s\b" % (q, name)
        if f == own or m in index[f].opens:
            pat += r"|(?<![\w.'])%s\b(?!\s*=)" % name
        for mt in re.finditer(pat, t):
            if re.search(r"\blet(\s+rec)?\s+$", t[max(0, mt.start() - 12):mt.start()]):
                continue
            out |= labels_at_depth0(t, mt.end())
    return out


def val_sigs(sig):
    """(name, signature text) of each top-level-ish `val`."""
    parts = re.split(r"^\s*val (\w+)\s*:", sig, flags=re.M)
    for k in range(1, len(parts), 2):
        body = re.split(r"\(\*\*|^\s*(?:val|type|module|exception|end)\b",
                        parts[k + 1], maxsplit=1, flags=re.M)[0]
        yield parts[k], body


def record_fields(sig, ty):
    """Field names of record type [ty] declared in [sig]."""
    head = re.search(r"^\s*type %s\s*=\s*\{" % ty, sig, re.M)
    if not head:
        return []
    body = re.sub(r"\(\*.*?\*\)", "", sig[head.end():], flags=re.S)
    return re.findall(r"(?:^|;)\s*(?:mutable\s+)?(\w+)\s*:",
                      body[:body.index("}")])


def setters(field, t):
    return re.search(
        r"(?:\{|;|\bwith)\s*(?:[A-Z]\w*\.)*%s\s*(?:=|;|\})" % field, t)


def drop_default(t):
    return re.sub(r"\blet default\w*\s*=\s*\{[^}]*\}", "", t)


found = set()
for mli in mlis:
    sig = open(mli).read()
    m, own = module_of(mli), mli[:-1]
    for name, body in val_sigs(sig):
        if reads(mli, sig, name, tests) and not reads(mli, sig, name, program):
            found.add("%s.%s" % (m, name))
        opt = re.findall(r"\?(\w+)\s*:", body)
        if opt:
            by_tests = passed(mli, sig, name, tests)
            by_program = passed(mli, sig, name, program)
            for label in opt:
                if label in by_tests and label not in by_program:
                    found.add("%s.%s ?%s" % (m, name, label))
    for ty in set(re.findall(r"^\s*val default\w*\s*:\s*(\w+)", sig, re.M)):
        for field in record_fields(sig, ty):
            if any(setters(field, t) for t in tests.values()) and not any(
                    setters(field, drop_default(t)) for t in program.values()):
                found.add("%s.%s.%s" % (m, ty, field))

kept = set()
for line in open(LIST):
    line = line.strip()
    if line and not line.startswith("#"):
        kept.add(line.split(" — ", 1)[0].strip())

drift = 0
for entry in sorted(found - kept):
    print("test-only: %s" % entry)
    drift += 1
for entry in sorted(kept - found):
    print("stale keep: %s" % entry)
    drift += 1

sys.exit(1 if dead or drift else 0)
