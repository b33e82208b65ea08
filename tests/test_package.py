"""The package's export list."""

import vacpair


class TestExports:
    def test_every_name_in_all_resolves(self):
        for name in vacpair.__all__:
            assert hasattr(vacpair, name), name

    def test_all_has_no_duplicates(self):
        assert len(set(vacpair.__all__)) == len(vacpair.__all__)
