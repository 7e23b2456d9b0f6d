#!/usr/bin/env python3
"""Independent check of the `.qtrs` trace-store format (DESIGN.md 4e).

Uses only the Python standard library: `struct` for the framing and
`zlib.crc32` for the checksums, so it shares no code with the Rust
store. It

1. writes a store by hand from the documented layout, with record
   lengths that are not multiples of 16 plus 0-sample and empty-input
   records, then requires `qdi-trace fsck` to call it clean and
   `qdi-trace info` to count its records;
2. runs `qdi-trace convert --f32 --delta` and `convert --f64 --no-delta`
   on it and requires every output record's CRC to verify under
   `zlib.crc32`, each output to equal this script's own encoding of the
   same records, and so the f64 output to equal the input byte for byte.

Usage (from the repository root, after `cargo build --release`):

    python3 scripts/qtrs_crosscheck.py [QDI_TRACE]

QDI_TRACE defaults to target/release/qdi-trace. Exit status 0 when every
check passes, 1 otherwise.
"""

import math
import os
import struct
import subprocess
import sys
import tempfile
import zlib

HEADER = struct.Struct("<4sHHQQ8x")
FLAG_F32 = 1
FLAG_DELTA = 2

# (input bytes, sample count): bodies of 8 + len(input) + 8 * count bytes,
# most of them not a multiple of 16, and the empty edge cases.
RECORDS = [
    (b"", 0),
    (b"", 5),
    (b"\x01", 0),
    (b"\xab\xcd\xef", 1),
    (b"\x10\x20", 3),
    (b"\x07", 17),
    (b"abcde", 130),
    (bytes(range(33)), 1000),
    (b"\xff", 2),
]


def check(ok, message):
    if not ok:
        sys.exit(f"qtrs cross-check: FAILED: {message}")


def samples_of(index, count):
    """Finite, varied samples: zeros, negatives, several magnitudes."""
    return [
        0.0 if i % 11 == 0 else math.sin(index * 7.3 + i) * 10.0 ** (i % 5 - 2)
        for i in range(count)
    ]


def encode_store(records, flags):
    """The store bytes for `records` under `flags`, per DESIGN.md 4e:
    samples as little-endian IEEE-754 bit patterns, each XORed with its
    predecessor's bits under the delta flag."""
    word = "<I" if flags & FLAG_F32 else "<Q"
    value = "<f" if flags & FLAG_F32 else "<d"
    out = bytearray(HEADER.pack(b"QTRS", 1, flags, 1234, 10))
    for data, samples in records:
        body = bytearray(struct.pack("<II", len(data), len(samples)) + data)
        prev = 0
        for s in samples:
            (bits,) = struct.unpack(word, struct.pack(value, s))
            body += struct.pack(word, bits ^ prev if flags & FLAG_DELTA else bits)
            prev = bits
        out += body + struct.pack("<I", zlib.crc32(body))
    return bytes(out)


def verify_crcs(data):
    """Walks a store's records, checking each CRC with `zlib.crc32`.
    Returns the header flags and the record count."""
    magic, version, flags, _, _ = HEADER.unpack_from(data, 0)
    check(magic == b"QTRS" and version == 1, f"bad header {magic!r} v{version}")
    width = 4 if flags & FLAG_F32 else 8
    offset, count = HEADER.size, 0
    while offset < len(data):
        input_len, samples = struct.unpack_from("<II", data, offset)
        end = offset + 8 + input_len + samples * width
        check(end + 4 <= len(data), f"record {count} overruns the file")
        (crc,) = struct.unpack_from("<I", data, end)
        body_crc = zlib.crc32(data[offset:end])
        check(body_crc == crc, f"record {count}: CRC {crc:08x}, zlib.crc32 {body_crc:08x}")
        offset, count = end + 4, count + 1
    return flags, count


def run(tool, *args):
    proc = subprocess.run([tool, *args], capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def main():
    tool = sys.argv[1] if len(sys.argv) > 1 else os.path.join("target", "release", "qdi-trace")
    check(os.path.isfile(tool), f"{tool} not found; run `cargo build --release` first")
    records = [(data, samples_of(i, n)) for i, (data, n) in enumerate(RECORDS)]
    with tempfile.TemporaryDirectory(prefix="qtrs-crosscheck-") as tmp:
        src = os.path.join(tmp, "hand.qtrs")
        source = encode_store(records, 0)
        with open(src, "wb") as f:
            f.write(source)

        code, out = run(tool, "fsck", src)
        check(code == 0 and out.rstrip().endswith("clean"), f"fsck: exit {code}\n{out}")
        code, out = run(tool, "info", src)
        check(code == 0, f"info: exit {code}\n{out}")
        counted = int(out.split(": ", 1)[1].split(" records", 1)[0])
        check(counted == len(records), f"info counts {counted} records, wrote {len(records)}")

        for flags, options in [
            (FLAG_F32 | FLAG_DELTA, ["--f32", "--delta"]),
            (0, ["--f64", "--no-delta"]),
        ]:
            dst = os.path.join(tmp, f"out-{flags}.qtrs")
            code, out = run(tool, "convert", *options, src, dst)
            check(code == 0, f"convert {' '.join(options)}: exit {code}\n{out}")
            with open(dst, "rb") as f:
                written = f.read()
            got = verify_crcs(written)
            check(got == (flags, len(records)), f"convert wrote (flags, records) = {got}")
            check(
                written == encode_store(records, flags),
                f"convert {' '.join(options)}: output differs from the reference encoding"
                + (", which is its input" if flags == 0 else ""),
            )
    print(f"qtrs cross-check: {len(records)} hand-written records verified through {tool}")


if __name__ == "__main__":
    main()
