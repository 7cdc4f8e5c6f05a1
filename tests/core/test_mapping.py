"""Figure 1: the identity-mapping methods, measured behaviourally."""

import pytest

from repro.core.mapping import (
    AccountPool,
    AnonymousAccounts,
    GroupAccounts,
    IdentityBoxMethod,
    METHOD_CLASSES,
    NeedsAdministrator,
    OWNER_SECRET,
    PrivateAccounts,
    Site,
    SingleAccount,
    UntrustedAccount,
    evaluate_method,
    group_of,
    render_table,
)

FRED = "/O=UnivNowhere/CN=Fred"
HEIDI = "/O=NotreDame/CN=Heidi"


@pytest.fixture
def site():
    return Site.build()


# -- individual method behaviour ------------------------------------------- #


def test_single_account_everyone_is_siteop(site):
    method = SingleAccount(site)
    s1 = method.admit(FRED)
    s2 = method.admit(HEIDI)
    assert s1.cred.uid == s2.cred.uid == site.operator.uid


def test_single_account_owner_unprotected(site):
    method = SingleAccount(site)
    session = method.admit(FRED)
    assert session.read_file(OWNER_SECRET) is not None


def test_untrusted_account_is_nobody(site):
    method = UntrustedAccount(site)
    session = method.admit(FRED)
    assert session.cred.username == "nobody"
    assert session.read_file(OWNER_SECRET) is None
    assert session.write_file("scratch", b"x")


def test_private_accounts_need_admin_first(site):
    method = PrivateAccounts(site)
    with pytest.raises(NeedsAdministrator):
        method.admit(FRED)
    method.administer(FRED)
    session = method.admit(FRED)
    assert session.cred.username.startswith("grid_u")
    assert site.manual_admin_actions == 1


def test_private_accounts_stable_across_sessions(site):
    method = PrivateAccounts(site)
    method.administer(FRED)
    s1 = method.admit(FRED)
    s2 = method.admit(FRED)
    assert s1.cred.uid == s2.cred.uid


def test_group_of_extracts_vo():
    assert group_of("/O=CMS/CN=alice") == "/O=CMS"
    assert group_of("plainname") == "plainname"


def test_group_accounts_share_within_vo(site):
    method = GroupAccounts(site)
    method.administer(FRED)
    fred = method.admit(FRED)
    george = method.admit("/O=UnivNowhere/CN=George")
    assert fred.cred.uid == george.cred.uid
    assert site.manual_admin_actions == 1  # one action for the whole VO


def test_group_accounts_isolate_across_vos(site):
    method = GroupAccounts(site)
    method.administer(FRED)
    method.administer(HEIDI)
    fred = method.admit(FRED)
    heidi = method.admit(HEIDI)
    assert fred.cred.uid != heidi.cred.uid


def test_anonymous_accounts_fresh_every_time(site):
    method = AnonymousAccounts(site)
    s1 = method.admit(FRED)
    uid1 = s1.cred.uid
    s1.write_file("data", b"x")
    s1.logout()
    s2 = method.admit(FRED)
    assert s2.cred.uid != uid1
    assert s2.read_file(s2.path_of("data")) is None  # no return
    assert site.manual_admin_actions == 0  # automated, no burden


def test_pool_rotates_accounts(site):
    method = AccountPool(site, pool_size=3)
    s1 = method.admit(FRED)
    first = s1.cred.username
    s1.logout()
    s2 = method.admit(FRED)
    assert s2.cred.username != first  # grid9 today, grid33 tomorrow
    assert site.manual_admin_actions == 1  # pool provisioning only


def test_pool_wipes_recycled_homes(site):
    method = AccountPool(site, pool_size=1)
    s1 = method.admit(FRED)
    s1.write_file("leftover", b"secret")
    s1.logout()
    s2 = method.admit(HEIDI)  # gets the same recycled account
    assert s2.cred.username == s1.cred.username
    assert s2.read_file(s2.path_of("leftover")) is None


def test_pool_exhaustion(site):
    method = AccountPool(site, pool_size=1)
    method.admit(FRED)
    from repro.kernel.errno import KernelError

    with pytest.raises(KernelError):
        method.admit(HEIDI)


def test_identity_box_sharing_by_grid_name(site):
    method = IdentityBoxMethod(site)
    fred = method.admit(FRED)
    heidi = method.admit(HEIDI)
    assert fred.write_file("shared.txt", b"hello heidi")
    assert heidi.read_file(fred.path_of("shared.txt")) is None  # before grant
    assert fred.grant(HEIDI)
    assert heidi.read_file(fred.path_of("shared.txt")) == b"hello heidi"


def test_identity_box_no_root_anywhere(site):
    method = IdentityBoxMethod(site)
    session = method.admit(FRED)
    assert session.write_file("f", b"x")
    assert site.manual_admin_actions == 0
    assert site.machine.users.admin_actions == 1  # only siteop's own account


# -- the full evaluation ---------------------------------------------------- #


def test_method_class_roster_matches_figure():
    assert [cls.name for cls in METHOD_CLASSES] == [
        "Single",
        "Untrusted",
        "Private",
        "Group",
        "Anonymous",
        "Pool",
        "IdentityBox",
    ]


@pytest.mark.parametrize(
    "cls,expected",
    [
        (SingleAccount, ("-", "no", "no", "yes", "yes", "-")),
        (UntrustedAccount, ("root", "yes", "no", "yes", "yes", "-")),
        (PrivateAccounts, ("root", "yes", "yes", "no", "yes", "per user")),
        (GroupAccounts, ("root", "yes", "fixed", "fixed", "yes", "per group")),
        (AnonymousAccounts, ("root", "yes", "yes", "no", "no", "-")),
        (AccountPool, ("root", "yes", "yes", "no", "no", "per pool")),
        (IdentityBoxMethod, ("-", "yes", "yes", "yes", "yes", "-")),
    ],
)
def test_figure1_row(cls, expected):
    """Every cell of Figure 1, measured."""
    report = evaluate_method(cls)
    assert (
        report.required_privilege,
        report.protects_owner,
        report.allows_privacy,
        report.allows_sharing,
        report.allows_return,
        report.admin_burden,
    ) == expected


def test_render_table_layout():
    report = evaluate_method(SingleAccount)
    text = render_table([report])
    assert "Account Type" in text
    assert "Single" in text


def test_a_method_without_an_administration_procedure_refuses_one(site):
    method = SingleAccount(site)
    with pytest.raises(NeedsAdministrator):
        method.administer(FRED)
    assert site.manual_admin_actions == 0
