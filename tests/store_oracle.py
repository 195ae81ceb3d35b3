"""Independent model of the user-store file rules, written from README.

It shares no code with `ctxradius.auth`: it reads the file's text with a
plain `json.loads` and walks the value entry by entry, in file order, to
say what a load must give.
"""

from __future__ import annotations

import json

KEYS = {"username", "salt", "digest", "otp_channel"}


def expected_load(text: str) -> tuple:
    """("ok", sorted (username, salt, digest, channel) tuples) for a valid
    store; ("entry", N) when entry N is the first that is no valid entry or
    repeats a username; ("top", type name) when the file is not a list."""
    value = json.loads(text)
    if type(value) is not list:
        return ("top", type(value).__name__)
    seen = {}
    for index, entry in enumerate(value):
        record = _record(entry)
        if record is None or record[0] in seen:
            return ("entry", index)
        seen[record[0]] = record
    return ("ok", sorted(seen.values()))


def _record(entry: object) -> tuple | None:
    """The entry's four fields with salt and digest as bytes, or None."""
    if type(entry) is not dict or set(entry) != KEYS:
        return None
    fields = (entry["username"], entry["salt"], entry["digest"], entry["otp_channel"])
    if any(type(field) is not str for field in fields):
        return None
    name, salt_hex, digest_hex, channel = fields
    try:
        name_octets = len(name.encode("utf-8"))  # a lone surrogate has no UTF-8 form
        salt, digest = bytes.fromhex(salt_hex), bytes.fromhex(digest_hex)
    except ValueError:
        return None
    if not 1 <= name_octets <= 253 or not channel or not channel.isprintable():
        return None
    if len(salt) < 16 or len(digest) != 32:
        return None
    return (name, salt, digest, channel)
