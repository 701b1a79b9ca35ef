#!/usr/bin/env python3
"""Fail if compiled code calls SSE-encoded libm with dirty AVX upper state.

Usage:

    python3 tools/check_avx_transitions.py <libtsunamigen.a or object file>

Any 256- or 512-bit instruction on %ymm0-15 / %zmm0-15 leaves the upper
halves of those registers in use until a `vzeroupper`.  SSE-encoded code
that runs in that state pays a transition penalty on every instruction
(glibc's `asinh`, `hypot`, `sinh`, ... are SSE-encoded), and the compiler
is expected to emit `vzeroupper` before every call out of AVX code.

The check disassembles the file with `objdump -drC` and walks each function
in linear order: a reference to %ymm0-15 or %zmm0-15 marks the state dirty,
`vzeroupper`/`vzeroall` marks it clean, and a call or tail jump to a libm
entry point or to `tsg::solveFriction*` while dirty is reported.  Linear
order ignores branches; that is enough for the compiler-generated pattern
the check guards against (a wide store, a call to a TU-local helper, then
the libm call with no `vzeroupper`).

Exit status: 0 clean, 1 violations found, 77 (ctest's skip code) when
`objdump` is not installed, 2 on usage errors.
"""

import re
import shutil
import subprocess
import sys

SKIP = 77

LIBM = {
    "acos", "acosh", "asin", "asinh", "atan", "atan2", "atanh", "cbrt",
    "cos", "cosh", "erf", "erfc", "exp", "exp2", "expm1", "fmod", "hypot",
    "lgamma", "log", "log10", "log1p", "log2", "pow", "sin", "sincos",
    "sinh", "sqrt", "tan", "tanh", "tgamma",
}
LIBM |= {name + "f" for name in LIBM}

WIDE = re.compile(r"%[yz]mm(?:1[0-5]|[0-9])\b")
LABEL = re.compile(r"^[0-9a-f]+ <(.*)>:$")
INSN = re.compile(r"^\s*([0-9a-f]+):\s+(\S+)\s*(.*)$")
RELOC = re.compile(r"^\s*[0-9a-f]+: R_X86_64_\w+\s+(.*?)(?:[-+]0x[0-9a-f]+)?$")
DIRECT = re.compile(r"<(.*?)(?:\+0x[0-9a-f]+)?>")


def guarded(target):
    return target in LIBM or target.startswith("tsg::solveFriction")


def scan(lines):
    """Yield (function, dirtying insn, call site, target) per violation."""
    function, dirty_at, pending = None, None, None
    for line in lines:
        label = LABEL.match(line)
        reloc = RELOC.match(line)
        insn = INSN.match(line)
        if pending is not None and (label or reloc or insn):
            # A call's target is its relocation when the next line has
            # one, else the direct target objdump printed.
            site, target = pending
            target = reloc.group(1) if reloc else target
            if dirty_at is not None and guarded(target):
                yield function, dirty_at, site, target
            pending = None
        if label:
            function, dirty_at = label.group(1), None
        if not insn or function is None:
            continue
        addr, mnemonic, operands = insn.groups()
        if mnemonic in ("vzeroupper", "vzeroall"):
            dirty_at = None
        elif WIDE.search(operands):
            dirty_at = dirty_at or f"{addr}: {mnemonic} {operands}"
        elif mnemonic.startswith(("call", "jmp")):
            direct = DIRECT.search(operands)
            pending = (f"{addr}: {mnemonic}", direct.group(1) if direct else "")
    if pending is not None and dirty_at is not None and guarded(pending[1]):
        yield function, dirty_at, pending[0], pending[1]


def main(argv):
    if len(argv) != 2:
        print("usage: check_avx_transitions.py <archive or object file>",
              file=sys.stderr)
        return 2
    objdump = shutil.which("objdump")
    if objdump is None:
        print("check_avx_transitions: objdump not found, skipping")
        return SKIP
    proc = subprocess.run([objdump, "-drC", "--no-show-raw-insn", argv[1]],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return 2
    lines = proc.stdout.splitlines()
    wide = sum(1 for line in lines if WIDE.search(line))
    violations = list(scan(lines))
    for function, dirty_at, call, target in violations:
        print(f"{function}\n    upper state dirtied at {dirty_at}\n"
              f"    then {call} -> {target} with no vzeroupper")
    print(f"check_avx_transitions: {len(violations)} violation(s); "
          f"{wide} instructions touch %ymm0-15/%zmm0-15")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
