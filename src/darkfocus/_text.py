"""The one writer and reader of darkfocus's text files.

A table is rows of floats split by blanks, each in repr form, so that a file
reads back to the same bits; callers write and read their own header lines.
The row loops run in trajio.c when darkfocus._compiled builds it, and
otherwise in the Python reference writer and numpy.loadtxt, which give the
same text and the same bits.  Text the compiled parser does not read goes
to numpy.loadtxt as well, which raises the errors.  A report is key=value
lines.
"""

import ctypes

import numpy as np

from . import _compiled

_ROWS_PER_BLOCK = 8192
# longest number df_format_rows writes, with the blank or line end after it
_NUMBER_BYTES = 25
_READ_BYTES = 1 << 20


def _python_rows(rows):
    """The reference row writer: the text of a 2-D float array, every float
    in repr form."""
    return "".join([" ".join(map(repr, row)) + "\n" for row in rows.tolist()])


def _compiled_rows(library, rows):
    """trajio.c's df_format_rows behind the reference writer's signature."""
    rows = np.ascontiguousarray(rows, dtype=float)
    n, m = rows.shape
    text = np.empty(n * m * _NUMBER_BYTES, dtype=np.uint8)
    size = library.df_format_rows(rows, n, m, *_compiled.shortest_tables(), text, len(text))
    if size < 0:
        raise RuntimeError(f"df_format_rows cannot write {n} rows of {m} columns")
    return str(memoryview(text)[:size], "ascii")


def write_table(fh, rows):
    """Write the rows of a 2-D float array to the open text file fh, in
    blocks of _ROWS_PER_BLOCK to bound the memory the text takes."""
    rows = np.asarray(rows, dtype=float)
    library = _compiled.load()
    for start in range(0, len(rows), _ROWS_PER_BLOCK):
        block = rows[start:start + _ROWS_PER_BLOCK]
        fh.write(_python_rows(block) if library is None else _compiled_rows(library, block))


def _compiled_read(library, path, n_header, comma, ncols):
    """The data rows after the first n_header lines, ncols numbers each,
    parsed by trajio.c's df_parse_rows in blocks of _READ_BYTES; None when
    the rows are not plain decimal numbers in the forms it reads, and the
    reference reader must decide.  A first pass counts the lines, so the
    rows go straight into an array of their final size."""
    pow5 = _compiled.decimal_table()
    text = np.empty(_READ_BYTES, dtype=np.uint8)
    nrows = ctypes.c_long(0)
    with open(path, "rb") as fh:
        for _ in range(n_header):
            # a lone CR ends a line in the text-mode header scan, not here
            if b"\r" in fh.readline().removesuffix(b"\r\n"):
                return None
        start, lines = fh.tell(), 1
        while read := fh.readinto(text):
            lines += np.count_nonzero(text[:read] == ord("\n"))
        fh.seek(start)
        data = np.empty((lines, ncols))
        done = kept = 0
        while True:
            read = fh.readinto(text[kept:])
            end = kept + read
            used = library.df_parse_rows(text, end, read == 0, comma, pow5, ncols,
                                         data[done:], lines - done, ctypes.byref(nrows))
            if used < 0:
                return None
            done += nrows.value
            if read == 0:
                break
            kept = end - used
            if kept == len(text):
                return None  # one line fills the whole block
            text[:kept] = text[used:end]
    return data[:done] if done else None


def read_table(path):
    """(header, rows) of a text table.  The header is the lines, stripped,
    before the first row: blank lines, '#' comments and lines of column
    names.  rows is the 2-D float array of the lines from there on, split by
    blanks or, when the first row has a comma, by commas; (0, 0) when the
    file has no row."""
    header = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            tokens = line.replace(",", " ").split()
            # a line of column names opens with an identifier float() cannot read
            names = tokens and tokens[0].isidentifier() and tokens[0].lower() not in (
                "nan", "inf", "infinity")
            if line and not line.startswith("#") and not names:
                break
            header.append(line)
        else:
            return header, np.empty((0, 0))
    comma = "," in line
    library = _compiled.load()
    rows = (None if library is None
            else _compiled_read(library, path, len(header), comma, len(tokens)))
    if rows is None:
        rows = np.loadtxt(path, delimiter="," if comma else None, skiprows=len(header),
                          ndmin=2)
    return header, rows


def _value_text(value):
    if isinstance(value, tuple):
        return " ".join(map(_value_text, value))
    return repr(float(value)) if isinstance(value, float) else str(value)


def write_values(path, values, mode="w"):
    """Write the dict values as key=value lines: floats in repr form, so that
    float() reads back the same bits; other values as str writes them;
    tuples as their items split by blanks.  mode "a" appends to the file."""
    with open(path, mode) as fh:
        fh.writelines(f"{key}={_value_text(value)}\n" for key, value in values.items())
