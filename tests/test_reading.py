"""Every input-file reader reports a file it cannot read or decode as a FormatError."""

import pytest

from subspace_lvq.corpus import ingest, read_annotations, read_scored
from subspace_lvq.embedding import load_embeddings, load_stopwords
from subspace_lvq.errors import FormatError

# Each reader is called on the path of one input file, ``case.txt``.  A
# directory is a valid corpus, so the JSON-lines corpus is made unreadable
# by removing the file instead.
READERS = [
    pytest.param(ingest, False, id="corpus-jsonl"),
    pytest.param(lambda file: ingest(file.parent), True, id="case-directory"),
    pytest.param(load_stopwords, True, id="stopwords"),
    pytest.param(read_scored, True, id="scored-csv"),
    pytest.param(read_annotations, True, id="annotations"),
    pytest.param(load_embeddings, True, id="embeddings"),
]


@pytest.mark.parametrize("read, as_directory", READERS)
def test_unreadable_file_is_a_format_error_naming_it(read, as_directory, tmp_path):
    folder = tmp_path / "in"
    folder.mkdir()
    file = folder / "case.txt"
    file.write_bytes(b"caf\xe9 1.0\n")
    with pytest.raises(FormatError, match="not UTF-8 text: ") as undecodable:
        read(file)
    assert str(undecodable.value).startswith(f"{file}: ")

    file.unlink()
    if as_directory:
        file.mkdir()
    with pytest.raises(FormatError, match="cannot read ") as unreadable:
        read(file)
    assert str(unreadable.value).startswith(f"{file}: cannot read ")
