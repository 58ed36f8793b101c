"""The one reader and writer of JSONL record files: one JSON object per line,
blank lines skipped. Each format's row parser sits next to its writer: docs,
queries and qrels in `evaluation`, the behavior log, pairs and triples in
`mining`, vectors in `encoder`. `lines` also reads the plain-text tokenizer
corpora and tokenizer models.
"""

from __future__ import annotations

import io
import json
from typing import Callable, Iterable, Iterator, TypeVar

from .sparse import ValidationError

T = TypeVar("T")


def lines(path: str) -> Iterator[tuple[int, str]]:
    """(line number, line) for each non-blank line of a UTF-8 text file, with
    universal newlines as in text mode. A file that is not UTF-8 raises
    ValidationError naming path:lineno of the first bad byte."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = io.StringIO(data[: exc.start].decode("utf-8"), newline=None).read()
        lineno = before.count("\n") + 1
        raise ValidationError(
            f"{path}:{lineno}: not UTF-8 ({exc.reason} at byte {exc.start})"
        ) from exc
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        if line.strip():
            yield lineno, line


def read(path: str, parse: Callable[[dict], T]) -> list[T]:
    """parse(obj) for the JSON object on each non-blank line. A line that is
    not a JSON object, or that parse rejects with ValueError, KeyError,
    TypeError or OverflowError, raises ValidationError naming path:lineno."""
    rows: list[T] = []
    for lineno, line in lines(path):
        try:
            obj = json.loads(line)
            if type(obj) is not dict:
                raise TypeError(f"expected a JSON object, got {line.strip()[:40]}")
            rows.append(parse(obj))
        except KeyError as exc:
            raise ValidationError(f"{path}:{lineno}: missing field {exc}") from exc
        except (ValueError, TypeError, OverflowError) as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from exc
    return rows


def write(path: str, rows: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(row, sort_keys=True) + "\n" for row in rows)


def string(obj: dict, key: str) -> str:
    """obj[key], which must be a JSON string."""
    if type(obj[key]) is not str:
        raise TypeError(f"field {key!r} must be a string, not {json.dumps(obj[key])[:40]}")
    return obj[key]


def strings(obj: dict, key: str) -> list[str]:
    """obj[key], or [] when it is absent, which must be a list of JSON strings."""
    value = obj.get(key, [])
    if type(value) is not list or any(type(item) is not str for item in value):
        raise TypeError(f"field {key!r} must be a list of strings, not {json.dumps(value)[:40]}")
    return value
