import coopgraph


def test_every_exported_name_resolves():
    assert [name for name in coopgraph.__all__ if not hasattr(coopgraph, name)] == []
    assert len(set(coopgraph.__all__)) == len(coopgraph.__all__)


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from coopgraph import *", namespace)
    assert set(coopgraph.__all__) <= namespace.keys()
