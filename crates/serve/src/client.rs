//! A blocking client for the fxrz-serve wire protocol.
//!
//! One connection, strict request/response: every call writes one frame,
//! reads one frame, and surfaces `Busy` / `Error` dispositions as typed
//! errors so scripts and tests can react to backpressure explicitly.

use crate::protocol::{self, FrameError, Reply, Request, RequestFrame, ResponseFrame, Status};
use fxrz_datagen::Field;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or framing failure.
    Frame(FrameError),
    /// The server shed the request; retry later.
    Busy,
    /// The server replied with an application error.
    Server {
        /// Wire error code (see [`protocol::ErrorCode`]).
        code: u16,
        /// Human-readable message.
        message: String,
    },
    /// The reply decoded to a different shape than the op promises.
    UnexpectedReply,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Frame(e) => write!(f, "transport: {e}"),
            ClientError::Busy => write!(f, "server busy (load shed); retry later"),
            ClientError::Server { code, message } => {
                write!(f, "server error {code}: {message}")
            }
            ClientError::UnexpectedReply => write!(f, "server reply had an unexpected shape"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Frame(FrameError::Io(e))
    }
}

trait Transport: Read + Write + Send {}
impl Transport for TcpStream {}
#[cfg(unix)]
impl Transport for std::os::unix::net::UnixStream {}

/// A connected fxrz-serve client.
pub struct Client {
    stream: Box<dyn Transport>,
    max_frame: u32,
    /// Deadline stamped on outgoing requests (0 = server default).
    pub deadline_ms: u32,
    next_id: u64,
}

impl Client {
    /// Connects over TCP (`host:port`).
    ///
    /// # Errors
    /// Propagates connection errors.
    pub fn connect_tcp(addr: &str) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Self::from_stream(Box::new(stream)))
    }

    /// Connects over a Unix-domain socket.
    ///
    /// # Errors
    /// Propagates connection errors.
    #[cfg(unix)]
    pub fn connect_unix(path: &std::path::Path) -> Result<Self, ClientError> {
        let stream = std::os::unix::net::UnixStream::connect(path)?;
        Ok(Self::from_stream(Box::new(stream)))
    }

    fn from_stream(stream: Box<dyn Transport>) -> Self {
        Self {
            stream,
            max_frame: protocol::DEFAULT_MAX_FRAME,
            deadline_ms: 0,
            next_id: 1,
        }
    }

    /// Raises or lowers the response-size cap this client accepts.
    pub fn set_max_frame(&mut self, max_frame: u32) {
        self.max_frame = max_frame;
    }

    /// Sends one request and reads its raw response frame. Most callers
    /// want the typed helpers below; this is the escape hatch.
    ///
    /// # Errors
    /// Fails on transport/framing errors or a response-id mismatch.
    pub fn call_raw(&mut self, request: &Request) -> Result<ResponseFrame, ClientError> {
        let req_id = self.next_id;
        self.next_id += 1;
        let frame = RequestFrame {
            op: request.op(),
            req_id,
            deadline_ms: self.deadline_ms,
            payload: request.encode(),
        };
        protocol::write_request(&mut self.stream, &frame).map_err(FrameError::Io)?;
        let response = protocol::read_response(&mut self.stream, self.max_frame)?;
        // `req_id == 0` on an error frame is the connection-level
        // convention: the server rejected the frame before it could parse
        // our id (for example a payload past its size cap).
        let conn_level = response.status == Status::Error && response.req_id == 0;
        if response.req_id != req_id && !conn_level {
            return Err(ClientError::Frame(FrameError::Malformed(
                "response id does not match request",
            )));
        }
        Ok(response)
    }

    /// Sends one request and decodes an `Ok` reply, mapping `Busy` and
    /// `Error` dispositions to typed errors.
    ///
    /// # Errors
    /// Everything [`Self::call_raw`] raises, plus `Busy` / `Server`.
    pub fn call(&mut self, request: &Request) -> Result<Reply, ClientError> {
        let response = self.call_raw(request)?;
        match response.status {
            Status::Ok => Ok(Reply::decode(request.op(), &response.payload)?),
            Status::Busy => Err(ClientError::Busy),
            Status::Error => {
                let (code, message) = response
                    .error_parts()
                    .unwrap_or((0, "malformed error payload".to_owned()));
                Err(ClientError::Server { code, message })
            }
        }
    }

    /// Liveness probe; returns the round-trip time.
    ///
    /// # Errors
    /// Propagates call failures.
    pub fn ping(&mut self) -> Result<Duration, ClientError> {
        let t0 = std::time::Instant::now();
        match self.call(&Request::Ping)? {
            Reply::Pong => Ok(t0.elapsed()),
            _ => Err(ClientError::UnexpectedReply),
        }
    }

    /// Extracts the feature vector of `field`; returns the JSON document.
    ///
    /// # Errors
    /// Propagates call failures.
    pub fn features(&mut self, field: &Field) -> Result<String, ClientError> {
        match self.call(&Request::Features {
            field: field.clone(),
        })? {
            Reply::Json(json) => Ok(json),
            _ => Err(ClientError::UnexpectedReply),
        }
    }

    /// Compression-free estimate through a registered model; returns the
    /// JSON document.
    ///
    /// # Errors
    /// Propagates call failures.
    pub fn predict(
        &mut self,
        model: &str,
        ratio: f64,
        field: &Field,
    ) -> Result<String, ClientError> {
        match self.call(&Request::Predict {
            model: model.to_owned(),
            ratio,
            field: field.clone(),
        })? {
            Reply::Json(json) => Ok(json),
            _ => Err(ClientError::UnexpectedReply),
        }
    }

    /// Fixed-ratio compression through a registered model; returns the
    /// info JSON and the compressed stream.
    ///
    /// # Errors
    /// Propagates call failures.
    pub fn compress(
        &mut self,
        model: &str,
        ratio: f64,
        field: &Field,
    ) -> Result<(String, Vec<u8>), ClientError> {
        match self.call(&Request::Compress {
            model: model.to_owned(),
            ratio,
            field: field.clone(),
        })? {
            Reply::Compress { info, stream } => Ok((info, stream)),
            _ => Err(ClientError::UnexpectedReply),
        }
    }

    /// Decompresses a self-describing compressor stream server-side.
    ///
    /// # Errors
    /// Propagates call failures.
    pub fn decompress(&mut self, stream: &[u8]) -> Result<Field, ClientError> {
        match self.call(&Request::Decompress {
            stream: stream.to_vec(),
        })? {
            Reply::Field(field) => Ok(field),
            _ => Err(ClientError::UnexpectedReply),
        }
    }

    /// Decompresses element range `start..end` of a stream server-side.
    /// Slabbed streams decode only the covering slabs.
    ///
    /// # Errors
    /// Propagates call failures.
    pub fn decompress_range(
        &mut self,
        stream: &[u8],
        start: u64,
        end: u64,
    ) -> Result<Vec<f32>, ClientError> {
        match self.call(&Request::DecompressRange {
            start,
            end,
            stream: stream.to_vec(),
        })? {
            Reply::Range(values) => Ok(values),
            _ => Err(ClientError::UnexpectedReply),
        }
    }

    /// Opens a streaming session; returns `(info json, FXRZS1 header
    /// bytes)`. Parse `stream_id` out of the info JSON for subsequent
    /// frame/close calls — the session lives on this connection only.
    ///
    /// # Errors
    /// Propagates call failures.
    pub fn stream_open(
        &mut self,
        target_ratio: f64,
        window: u32,
        models: &[String],
    ) -> Result<(String, Vec<u8>), ClientError> {
        match self.call(&Request::StreamOpen {
            target_ratio,
            window,
            models: models.to_vec(),
        })? {
            Reply::Stream { info, bytes } => Ok((info, bytes)),
            _ => Err(ClientError::UnexpectedReply),
        }
    }

    /// Encodes one frame through an open session; returns `(info json,
    /// frame record bytes)`.
    ///
    /// # Errors
    /// Propagates call failures (`NoSuchStream` when the id is stale).
    pub fn stream_frame(
        &mut self,
        stream_id: u32,
        field: &Field,
    ) -> Result<(String, Vec<u8>), ClientError> {
        match self.call(&Request::StreamFrame {
            stream_id,
            field: field.clone(),
        })? {
            Reply::Stream { info, bytes } => Ok((info, bytes)),
            _ => Err(ClientError::UnexpectedReply),
        }
    }

    /// Closes a session; returns `(summary json, trailer bytes)`.
    ///
    /// # Errors
    /// Propagates call failures (`NoSuchStream` when the id is stale).
    pub fn stream_close(&mut self, stream_id: u32) -> Result<(String, Vec<u8>), ClientError> {
        match self.call(&Request::StreamClose { stream_id })? {
            Reply::Stream { info, bytes } => Ok((info, bytes)),
            _ => Err(ClientError::UnexpectedReply),
        }
    }

    /// Loads (or hot-reloads) a model into the server registry; returns
    /// the `{"id":…,"version":…}` JSON.
    ///
    /// # Errors
    /// Propagates call failures.
    pub fn load_model(
        &mut self,
        id: &str,
        version: u32,
        json: &str,
    ) -> Result<String, ClientError> {
        match self.call(&Request::LoadModel {
            id: id.to_owned(),
            version,
            json: json.to_owned(),
        })? {
            Reply::Json(json) => Ok(json),
            _ => Err(ClientError::UnexpectedReply),
        }
    }

    /// Fetches the server statistics JSON (models, queue, telemetry).
    ///
    /// # Errors
    /// Propagates call failures.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        match self.call(&Request::Stats)? {
            Reply::Json(json) => Ok(json),
            _ => Err(ClientError::UnexpectedReply),
        }
    }
}
