"""Unit tests for ACLs, privileges, and the SecurityManager."""

import pytest

from repro.core.security import (
    MUTATING_COMMANDS,
    READ,
    WRITE,
    AccessControlList,
    SecurityError,
    SecurityManager,
    privilege_level,
    required_privilege,
)


# ------------------------------ privileges ------------------------------

def test_privilege_ordering():
    assert privilege_level(WRITE) > privilege_level(READ)


def test_unknown_privilege_rejected():
    with pytest.raises(SecurityError):
        privilege_level("root")


@pytest.mark.parametrize("command", sorted(MUTATING_COMMANDS))
def test_mutating_commands_require_write(command):
    assert required_privilege(command) == WRITE


@pytest.mark.parametrize("command", ["get_param", "read_sensor", "status",
                                     "describe", "list_params"])
def test_queries_require_read(command):
    assert required_privilege(command) == READ


# ------------------------------ ACLs --------------------------------------

def test_acl_grant_and_check():
    acl = AccessControlList({"alice": WRITE, "bob": READ})
    assert acl.allows("alice", WRITE)
    assert acl.allows("alice", READ)  # write implies read
    assert acl.allows("bob", READ)
    assert not acl.allows("bob", WRITE)
    assert not acl.allows("eve", READ)


def test_acl_invalid_privilege_rejected():
    with pytest.raises(SecurityError):
        AccessControlList({"alice": "superuser"})


def test_acl_users_and_len():
    acl = AccessControlList({"b": READ, "a": WRITE})
    assert len(acl) == 2
    assert "a" in acl


def test_acl_privilege_of():
    acl = AccessControlList({"alice": WRITE})
    assert acl.privilege_of("alice") == WRITE
    assert acl.privilege_of("bob") is None


# --------------------------- SecurityManager -------------------------------

def make_manager():
    mgr = SecurityManager()
    mgr.register_app_acl("app-1", {"alice": WRITE, "bob": READ})
    mgr.register_app_acl("app-2", {"carol": WRITE})
    return mgr


def test_user_known_across_apps():
    mgr = make_manager()
    assert mgr.user_known("alice")
    assert mgr.user_known("carol")
    assert not mgr.user_known("eve")


def test_authenticate_user_is_acl_membership():
    mgr = make_manager()
    assert mgr.authenticate_user("bob")
    assert not mgr.authenticate_user("eve")


def test_app_privilege_lookup():
    mgr = make_manager()
    assert mgr.app_privilege("alice", "app-1") == WRITE
    assert mgr.app_privilege("alice", "app-2") is None
    assert mgr.app_privilege("alice", "ghost") is None


def test_authorize_command_happy_paths():
    mgr = make_manager()
    mgr.authorize_command("alice", "app-1", "set_param")
    mgr.authorize_command("bob", "app-1", "get_param")


def test_authorize_command_denies_read_user_mutation():
    mgr = make_manager()
    with pytest.raises(SecurityError):
        mgr.authorize_command("bob", "app-1", "set_param")


def test_authorize_command_denies_unknown_app():
    mgr = make_manager()
    with pytest.raises(SecurityError):
        mgr.authorize_command("alice", "ghost", "get_param")


def test_authorize_command_denies_non_member():
    mgr = make_manager()
    with pytest.raises(SecurityError):
        mgr.authorize_command("eve", "app-1", "get_param")


def test_accessible_apps():
    mgr = make_manager()
    assert mgr.accessible_apps("alice") == {"app-1": WRITE}
    assert mgr.accessible_apps("carol") == {"app-2": WRITE}
    assert mgr.accessible_apps("eve") == {}


def test_application_token_authentication():
    mgr = SecurityManager()
    # open deployment: any token accepted
    assert mgr.authenticate_application("sim", "whatever")
    # pinned token: must match
    mgr.app_tokens["sim"] = "s3cret"
    assert mgr.authenticate_application("sim", "s3cret")
    assert not mgr.authenticate_application("sim", "wrong")
