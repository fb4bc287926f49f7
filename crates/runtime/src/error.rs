//! Client-visible runtime errors.

use std::fmt;

use deceit_net::rpc::RpcError;
use deceit_nfs::{FileAttr, NfsError, NfsReply};

/// Why a live client operation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// The transport failed: peer unreachable or reply timed out.
    Rpc(RpcError),
    /// The server executed the request and reported an envelope error.
    Nfs(NfsError),
    /// The server answered with a reply variant the operation cannot
    /// interpret — a protocol bug, not an environmental failure.
    UnexpectedReply(&'static str),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Rpc(e) => write!(f, "transport: {e}"),
            RuntimeError::Nfs(e) => write!(f, "nfs: {e}"),
            RuntimeError::UnexpectedReply(what) => {
                write!(f, "protocol: unexpected reply variant, wanted {what}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<RpcError> for RuntimeError {
    fn from(e: RpcError) -> Self {
        RuntimeError::Rpc(e)
    }
}

impl From<NfsError> for RuntimeError {
    fn from(e: NfsError) -> Self {
        RuntimeError::Nfs(e)
    }
}

/// Result alias for live client operations.
pub type RuntimeResult<T> = Result<T, RuntimeError>;

/// Extracts attributes or surfaces the server-side error.
pub(crate) fn expect_attr(rep: NfsReply) -> RuntimeResult<FileAttr> {
    match rep {
        NfsReply::Attr(attr) => Ok(attr),
        rep => Err(unexpected(rep, "Attr")),
    }
}

/// Maps an error reply to [`RuntimeError::Nfs`], anything else to a
/// protocol error naming the wanted variant.
pub(crate) fn unexpected(rep: NfsReply, wanted: &'static str) -> RuntimeError {
    match rep {
        NfsReply::Error(e) => RuntimeError::Nfs(e),
        _ => RuntimeError::UnexpectedReply(wanted),
    }
}
