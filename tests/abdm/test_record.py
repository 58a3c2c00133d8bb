"""ABDM records: keyword order, FILE convention, textual portion (Fig 2.3)."""

import gc
import sys

import pytest

from repro.abdm import FILE_ATTRIBUTE, Keyword, Record
from repro.errors import RecordSealed


@pytest.fixture()
def course_record():
    return Record.from_pairs(
        [
            (FILE_ATTRIBUTE, "course"),
            ("course", "course$1"),
            ("title", "Advanced Databases"),
            ("credits", 4),
        ],
        text="offered jointly with the EE department",
    )


class TestConstruction:
    def test_pairs_preserve_order(self, course_record):
        assert [a for a, _ in course_record.pairs()] == [
            "FILE",
            "course",
            "title",
            "credits",
        ]

    def test_file_name(self, course_record):
        assert course_record.file_name == "course"

    def test_file_name_missing(self):
        assert Record.from_pairs([("a", 1)]).file_name is None

    def test_textual_portion(self, course_record):
        assert "EE department" in course_record.text

    def test_at_most_one_keyword_per_attribute(self):
        record = Record([Keyword("a", 1), Keyword("a", 2)])
        assert record.get("a") == 2
        assert len(record) == 1


class TestAccess:
    def test_get_with_default(self, course_record):
        assert course_record.get("credits") == 4
        assert course_record.get("missing", "d") == "d"

    def test_getitem_and_contains(self, course_record):
        assert course_record["title"] == "Advanced Databases"
        assert "title" in course_record
        assert "nope" not in course_record

    def test_set_overwrites_in_place(self, course_record):
        course_record.set("credits", 5)
        assert course_record["credits"] == 5
        assert [a for a, _ in course_record.pairs()][-1] == "credits"

    def test_set_appends_new(self, course_record):
        course_record.set("semester", "fall")
        assert course_record.attributes[-1] == "semester"

    def test_remove(self, course_record):
        course_record.remove("title")
        assert "title" not in course_record
        course_record.remove("title")  # idempotent


class TestCopyEquality:
    def test_copy_is_independent(self, course_record):
        clone = course_record.copy()
        clone.set("credits", 1)
        assert course_record["credits"] == 4

    def test_equality_includes_order_and_text(self, course_record):
        same = Record.from_pairs(course_record.pairs(), text=course_record.text)
        assert same == course_record
        reordered = Record.from_pairs(list(reversed(course_record.pairs())), text=course_record.text)
        assert reordered != course_record

    def test_hashable(self, course_record):
        assert hash(course_record) == hash(course_record.copy())

    def test_not_equal_other_type(self, course_record):
        assert course_record != 42


class TestSealing:
    def test_sealed_record_refuses_set_and_remove(self, course_record):
        assert course_record.seal() is course_record
        with pytest.raises(RecordSealed):
            course_record.set("credits", 5)
        with pytest.raises(RecordSealed):
            course_record.remove("title")
        assert course_record["credits"] == 4
        assert "title" in course_record

    def test_copy_of_a_sealed_record_is_writable(self, course_record):
        clone = course_record.seal().copy()
        clone.set("credits", 5)
        assert course_record["credits"] == 4

    def test_remove_then_set_moves_the_attribute_last(self, course_record):
        course_record.remove("course")
        course_record.set("course", "course$2")
        assert course_record.attributes == ["FILE", "title", "credits", "course"]

    @pytest.mark.skipif(
        sys.implementation.name != "cpython" or sys.version_info >= (3, 14),
        reason="CPython up to 3.13 leaves a dict of scalars untracked",
    )
    def test_a_scalar_keyword_map_is_not_gc_tracked(self, course_record):
        """A stored record is one object for the cyclic collector to walk:
        its keyword dict holds only strings and scalars."""
        built = Record([Keyword("a", 1), Keyword("b", None)])
        built.set("c", 2.5)
        keys = course_record.keyword_map()
        projected = Record.sealed({a: keys[a] for a in ("title", "credits") if a in keys})
        for record in (course_record, course_record.copy(), built, projected):
            assert not gc.is_tracked(record.keyword_map())

    def test_sealed_takes_the_dict_it_is_given_and_is_sealed(self):
        keywords = {"b": 2, "a": None}
        row = Record.sealed(keywords)
        assert row.keyword_map() is keywords
        assert row.pairs() == [("b", 2), ("a", None)]
        assert row.text == ""
        assert row == Record.from_pairs([("b", 2), ("a", None)])
        with pytest.raises(RecordSealed):
            row.set("c", 1)


class TestRendering:
    def test_keyword_render(self):
        assert Keyword("title", "DB").render() == "<title, 'DB'>"

    def test_record_render(self):
        record = Record.from_pairs([("FILE", "f"), ("x", 1)])
        assert record.render() == "(<FILE, 'f'>, <x, 1>)"

    def test_repr_mentions_text(self, course_record):
        assert "EE department" in repr(course_record)
