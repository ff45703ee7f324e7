// HttpEndpoint tests over real loopback sockets, plus the QueryService
// integration: /metrics scraped during live query traffic must be
// parseable exposition text including the per-store pool series (with
// label escaping for caller-chosen store names).
#include "service/http_endpoint.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>

#include "common/failpoint.h"
#include "design/designer.h"
#include "instance/materialize.h"
#include "service/query_service.h"
#include "workload/workload.h"

namespace mctsvc {
namespace {

/// Blocking one-shot HTTP client: sends `request` verbatim to
/// 127.0.0.1:port and returns everything read until the server closes.
std::string RawRequest(uint16_t port, const std::string& request) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += size_t(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) response.append(buf, size_t(n));
  ::close(fd);
  return response;
}

std::string Get(uint16_t port, const std::string& path) {
  return RawRequest(port, "GET " + path + " HTTP/1.0\r\n\r\n");
}

TEST(HttpEndpointTest, ServesHandlerResponseOnEphemeralPort) {
  HttpEndpoint endpoint({}, [](const HttpRequest& request) {
    HttpResponse r;
    r.content_type = "text/plain";
    r.body = "path=" + request.path;
    return r;
  });
  ASSERT_TRUE(endpoint.Start().ok());
  ASSERT_GT(endpoint.port(), 0);
  std::string response = Get(endpoint.port(), "/hello");
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("Content-Type: text/plain"), std::string::npos);
  EXPECT_NE(response.find("path=/hello"), std::string::npos);
  endpoint.Stop();
  EXPECT_EQ(endpoint.requests_served(), 1u);
}

TEST(HttpEndpointTest, QueryStringIsStripped) {
  HttpEndpoint endpoint({}, [](const HttpRequest& request) {
    HttpResponse r;
    r.body = "path=" + request.path;
    return r;
  });
  ASSERT_TRUE(endpoint.Start().ok());
  std::string response = Get(endpoint.port(), "/metrics?format=text");
  EXPECT_NE(response.find("path=/metrics"), std::string::npos) << response;
  EXPECT_EQ(response.find("format"), std::string::npos);
  endpoint.Stop();
}

TEST(HttpEndpointTest, HandlerStatusPropagates) {
  HttpEndpoint endpoint({}, [](const HttpRequest&) {
    HttpResponse r;
    r.status = 404;
    r.body = "{\"error\":\"not found\"}";
    r.content_type = "application/json";
    return r;
  });
  ASSERT_TRUE(endpoint.Start().ok());
  std::string response = Get(endpoint.port(), "/nosuch");
  EXPECT_NE(response.find("HTTP/1.0 404"), std::string::npos) << response;
  endpoint.Stop();
}

TEST(HttpEndpointTest, UnsupportedMethodIsRejectedWith405) {
  HttpEndpoint endpoint({}, [](const HttpRequest&) {
    return HttpResponse{};
  });
  ASSERT_TRUE(endpoint.Start().ok());
  std::string response =
      RawRequest(endpoint.port(), "PUT /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(response.find("405"), std::string::npos) << response;
  endpoint.Stop();
}

TEST(HttpEndpointTest, PostDeliversMethodQueryAndBody) {
  HttpEndpoint endpoint({}, [](const HttpRequest& request) {
    HttpResponse r;
    r.body = request.method + " " + request.path + " q=" + request.query +
             " body=" + request.body;
    return r;
  });
  ASSERT_TRUE(endpoint.Start().ok());
  std::string response = RawRequest(
      endpoint.port(),
      "POST /update?store=AF&count=3 HTTP/1.0\r\n"
      "Content-Length: 11\r\n\r\nhello world");
  EXPECT_NE(response.find("POST /update q=store=AF&count=3 body=hello world"),
            std::string::npos)
      << response;
  endpoint.Stop();
}

TEST(HttpEndpointTest, PostWithoutBodyReachesHandler) {
  HttpEndpoint endpoint({}, [](const HttpRequest& request) {
    HttpResponse r;
    r.body = "method=" + request.method + " len=" +
             std::to_string(request.body.size());
    return r;
  });
  ASSERT_TRUE(endpoint.Start().ok());
  std::string response =
      RawRequest(endpoint.port(), "POST /update HTTP/1.0\r\n\r\n");
  EXPECT_NE(response.find("method=POST len=0"), std::string::npos)
      << response;
  endpoint.Stop();
}

TEST(HttpEndpointTest, OversizedBodyIsRejectedWith413) {
  HttpEndpoint::Options options;
  options.max_body_bytes = 16;
  bool handler_ran = false;
  HttpEndpoint endpoint(options, [&handler_ran](const HttpRequest&) {
    handler_ran = true;
    return HttpResponse{};
  });
  ASSERT_TRUE(endpoint.Start().ok());
  std::string response = RawRequest(
      endpoint.port(),
      "POST /update HTTP/1.0\r\nContent-Length: 64\r\n\r\n" +
          std::string(64, 'x'));
  EXPECT_NE(response.find("413"), std::string::npos) << response;
  EXPECT_FALSE(handler_ran);
  endpoint.Stop();
}

TEST(HttpEndpointTest, ContentLengthHeaderIsCaseInsensitive) {
  HttpEndpoint endpoint({}, [](const HttpRequest& request) {
    HttpResponse r;
    r.body = "body=" + request.body;
    return r;
  });
  ASSERT_TRUE(endpoint.Start().ok());
  std::string response = RawRequest(
      endpoint.port(),
      "POST /x HTTP/1.0\r\nCONTENT-LENGTH: 4\r\n\r\nabcd");
  EXPECT_NE(response.find("body=abcd"), std::string::npos) << response;
  endpoint.Stop();
}

TEST(HttpEndpointTest, MalformedRequestLineIs400) {
  HttpEndpoint endpoint({}, [](const HttpRequest&) {
    return HttpResponse{};
  });
  ASSERT_TRUE(endpoint.Start().ok());
  std::string response = RawRequest(endpoint.port(), "garbage\r\n\r\n");
  EXPECT_NE(response.find("400"), std::string::npos) << response;
  endpoint.Stop();
}

TEST(HttpEndpointTest, StartAndStopAreIdempotent) {
  HttpEndpoint endpoint({}, [](const HttpRequest&) {
    return HttpResponse{};
  });
  ASSERT_TRUE(endpoint.Start().ok());
  uint16_t port = endpoint.port();
  EXPECT_TRUE(endpoint.Start().ok());  // second Start is a no-op
  EXPECT_EQ(endpoint.port(), port);
  endpoint.Stop();
  endpoint.Stop();
}

TEST(HttpEndpointTest, ServesManySequentialRequests) {
  HttpEndpoint endpoint({}, [](const HttpRequest&) {
    HttpResponse r;
    r.body = "ok";
    return r;
  });
  ASSERT_TRUE(endpoint.Start().ok());
  for (int i = 0; i < 16; ++i) {
    EXPECT_NE(Get(endpoint.port(), "/x").find("200 OK"), std::string::npos);
  }
  endpoint.Stop();
  EXPECT_EQ(endpoint.requests_served(), 16u);
}

/// Full-stack integration: a small TPC-W store behind QueryService with
/// the HTTP endpoint enabled; scrapes go through real sockets while the
/// service executes queries.
class HttpServiceTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    w_ = new mctdb::workload::Workload(mctdb::workload::TpcwWorkload(0.02));
    graph_ = new mctdb::er::ErGraph(w_->diagram);
    mctdb::design::Designer designer(*graph_);
    schema_ = new mctdb::mct::MctSchema(
        designer.Design(mctdb::design::Strategy::kEn));
    logical_ = new mctdb::instance::LogicalInstance(
        mctdb::instance::GenerateInstance(*graph_, w_->gen));
    store_ = mctdb::instance::Materialize(*logical_, *schema_).release();
  }
  static void TearDownTestSuite() {
    delete store_;
    delete logical_;
    delete schema_;
    delete graph_;
    delete w_;
  }

  static mctdb::workload::Workload* w_;
  static mctdb::er::ErGraph* graph_;
  static mctdb::mct::MctSchema* schema_;
  static mctdb::instance::LogicalInstance* logical_;
  static mctdb::storage::MctStore* store_;
};

mctdb::workload::Workload* HttpServiceTest::w_ = nullptr;
mctdb::er::ErGraph* HttpServiceTest::graph_ = nullptr;
mctdb::mct::MctSchema* HttpServiceTest::schema_ = nullptr;
mctdb::instance::LogicalInstance* HttpServiceTest::logical_ = nullptr;
mctdb::storage::MctStore* HttpServiceTest::store_ = nullptr;

TEST_F(HttpServiceTest, MetricsScrapeDuringTrafficIncludesPoolSeries) {
  ServiceOptions options;
  options.http_port = 0;  // ephemeral
  QueryService service(options);
  // A store name with every character the exposition format escapes.
  ASSERT_TRUE(service.AddStore("we\"ird\\store", store_).ok());
  ASSERT_NE(service.HttpPort(), 0);

  const mctdb::query::AssociationQuery* q = w_->Find("Q1");
  ASSERT_NE(q, nullptr);
  auto session = service.OpenSession("we\"ird\\store");
  ASSERT_TRUE(session.ok());
  auto future = (*session)->SubmitQuery(*q);
  ASSERT_TRUE(future.ok()) << future.status().ToString();
  ASSERT_TRUE(future->get().ok());
  service.Drain();

  std::string response = Get(service.HttpPort(), "/metrics");
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos)
      << response;
  EXPECT_NE(response.find("mctsvc_requests_completed_total 1"),
            std::string::npos)
      << response;
  // Per-store pool series with the name escaped per the exposition format.
  EXPECT_NE(response.find("mctsvc_pool_hits_total{store=\"we\\\"ird\\\\store\"}"),
            std::string::npos)
      << response;
  EXPECT_NE(response.find("# HELP mctsvc_pool_hits_total"),
            std::string::npos);

  std::string health = Get(service.HttpPort(), "/healthz");
  EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos) << health;
  EXPECT_NE(health.find("\"stores\":1"), std::string::npos) << health;

  EXPECT_NE(Get(service.HttpPort(), "/nosuch").find("404"),
            std::string::npos);
}

TEST_F(HttpServiceTest, HealthzTurns503WhileABreakerIsOpen) {
  ServiceOptions options;
  options.http_port = 0;
  options.breaker_failure_threshold = 1;
  options.breaker_open_seconds = 60.0;  // stays open for the whole test
  QueryService service(options);
  ASSERT_TRUE(service.AddStore("tpcw", store_).ok());
  ASSERT_NE(service.HttpPort(), 0);

  const mctdb::query::AssociationQuery* q = w_->Find("Q1");
  ASSERT_NE(q, nullptr);
  auto session = service.OpenSession("tpcw");
  ASSERT_TRUE(session.ok());

  // Healthy service: 200.
  std::string healthy = Get(service.HttpPort(), "/healthz");
  EXPECT_NE(healthy.find("200 OK"), std::string::npos) << healthy;
  EXPECT_NE(healthy.find("\"status\":\"ok\""), std::string::npos);

  // One injected hard failure trips the (threshold-1) breaker; a load
  // balancer polling /healthz now sees 503 and drains this replica.
  {
    mctdb::failpoint::FailpointGuard guard("service.exec", "err");
    auto future = (*session)->SubmitQuery(*q);
    ASSERT_TRUE(future.ok()) << future.status().ToString();
    ASSERT_FALSE(future->get().ok());
  }
  std::string degraded = Get(service.HttpPort(), "/healthz");
  EXPECT_NE(degraded.find("503"), std::string::npos) << degraded;
  EXPECT_NE(degraded.find("\"status\":\"degraded\""), std::string::npos)
      << degraded;
  EXPECT_NE(degraded.find("\"state\":\"open\""), std::string::npos)
      << degraded;
}

TEST_F(HttpServiceTest, EndpointDisabledByDefault) {
  QueryService service;
  ASSERT_TRUE(service.AddStore("tpcw", store_).ok());
  EXPECT_EQ(service.HttpPort(), 0);
}

TEST_F(HttpServiceTest, ServiceShutdownStopsEndpointCleanly) {
  uint16_t port = 0;
  {
    ServiceOptions options;
    options.http_port = 0;
    QueryService service(options);
    ASSERT_TRUE(service.AddStore("tpcw", store_).ok());
    port = service.HttpPort();
    ASSERT_NE(port, 0);
    EXPECT_NE(Get(port, "/healthz").find("200 OK"), std::string::npos);
  }
  // After destruction nothing listens on the port anymore.
  EXPECT_EQ(Get(port, "/healthz"), "");
}

}  // namespace
}  // namespace mctsvc
