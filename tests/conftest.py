"""Fixtures shared by the file-format tests."""

import pytest

# bytes that no reader can take as a JSON object
UNDECODABLE = {
    "invalid-utf8": b"\xc3\x28",
    "nested-100k": b"[" * 100_000,
    "top-level-array": b"[1, 2]",
    "5000-digit-int": b'{"q": ' + b"9" * 5000 + b"}",
}


@pytest.fixture(params=list(UNDECODABLE.values()), ids=list(UNDECODABLE))
def undecodable_file(request, tmp_path):
    path = tmp_path / "undecodable.json"
    path.write_bytes(request.param)
    return str(path)
