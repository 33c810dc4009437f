import pdnet


def test_every_export_resolves():
    missing = [name for name in pdnet.__all__ if not hasattr(pdnet, name)]
    assert not missing, f"pdnet.__all__ names what the package does not define: {missing}"
    assert len(set(pdnet.__all__)) == len(pdnet.__all__)
