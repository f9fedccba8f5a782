"""The golden retriever workspace and small compile helpers, shared by the tests."""

from __future__ import annotations

import json
import textwrap

CORE_XML = """\
<model>
  <bean id="MetaCache" class="Class" parent="Class">
    <properties>
      <property>
        <name>cache</name>
        <type>CacheManager</type>
        <description>Caches the result</description>
      </property>
    </properties>
  </bean>

  <bean id="HTTP_Client" class="MetaCache">
    <cache class="StandardCache">
      <timeToLive>60</timeToLive>
      <maxElementsInMemory>500</maxElementsInMemory>
    </cache>
    <properties>
      <property>
        <name>numberOfRetries</name>
        <type>Long</type>
        <description>Number of retries</description>
      </property>
      <property>
        <name>timeout</name>
        <type>Long</type>
        <description>Timeout in seconds</description>
      </property>
      <property>
        <name>URL</name>
        <type>String</type>
        <description>The target URL</description>
      </property>
    </properties>
  </bean>

  <bean id="RobustHTTP_Client" class="HTTP_Client" abstract="true">
    <numberOfRetries>8</numberOfRetries>
    <timeout>15</timeout>
  </bean>

  <bean id="FastHTTP_Client" class="HTTP_Client" abstract="true">
    <numberOfRetries>2</numberOfRetries>
    <timeout>2</timeout>
  </bean>

  <bean id="PontisLogoRetriever" class="HTTP_Client" parent="FastHTTP_Client">
    <URL>www.pontis.com/logo.bmp</URL>
  </bean>
</model>
"""

CACHES_XML = """\
<model>
  <bean id="CacheManager" class="Class">
    <properties>
      <property>
        <name>timeToLive</name>
        <type>Long</type>
        <description>Seconds an entry stays valid</description>
      </property>
      <property>
        <name>maxElementsInMemory</name>
        <type>Long</type>
        <description>Entry cap before eviction</description>
      </property>
    </properties>
  </bean>

  <bean id="StandardCache" class="Class" parent="CacheManager"/>

  <bean id="SecuredCacheManager" class="Class" parent="CacheManager"/>
</model>
"""

RETRIEVERS_XML = """\
<model>
  <bean id="PictureRetriever" class="MetaCache" parent="HTTP_Client" declarative="true">
    <cache class="StandardCache">
      <timeToLive>600</timeToLive>
      <maxElementsInMemory>1000</maxElementsInMemory>
    </cache>
  </bean>

  <bean id="NewsRetriever" class="MetaCache" parent="HTTP_Client" declarative="true">
    <cache class="StandardCache">
      <timeToLive>10</timeToLive>
      <maxElementsInMemory>10000</maxElementsInMemory>
    </cache>
  </bean>

  <bean id="StockQuoteRetriever" class="MetaCache" parent="HTTP_Client" declarative="true">
    <cache class="StandardCache">
      <timeToLive>0</timeToLive>
      <maxElementsInMemory>0</maxElementsInMemory>
    </cache>
  </bean>

  <bean id="CNN_NewsRetriever" class="NewsRetriever" parent="FastHTTP_Client">
    <URL>www.cnn.com</URL>
  </bean>
</model>
"""

SECURED_XML = """\
<model>
  <bean id="MetaSecuredCache" class="Class" parent="MetaCache" declarative="true">
    <properties>
      <property>
        <name>cache</name>
        <type>SecuredCacheManager</type>
        <description>Provides secured caching capabilities</description>
      </property>
    </properties>
  </bean>

  <bean id="BankBalanceRetriever" class="MetaSecuredCache" parent="HTTP_Client" declarative="true">
    <cache class="SecuredCacheManager">
      <timeToLive>10</timeToLive>
      <maxElementsInMemory>20</maxElementsInMemory>
    </cache>
  </bean>
</model>
"""

PICTURES_XML = """\
<model>
  <bean id="LogoPictureRetriever" class="PictureRetriever" parent="RobustHTTP_Client">
    <URL>www.example.org/logo.png</URL>
  </bean>
</model>
"""

MANIFEST = {
    "classes": [
        {
            "name": "HTTP_Client",
            "parent": None,
            "fields": [
                {"name": "numberOfRetries", "type": "Long"},
                {"name": "timeout", "type": "Long"},
                {"name": "URL", "type": "String"},
            ],
        },
        {
            "name": "CacheManager",
            "parent": None,
            "fields": [
                {"name": "timeToLive", "type": "Long"},
                {"name": "maxElementsInMemory", "type": "Long"},
            ],
        },
        {"name": "StandardCache", "parent": "CacheManager", "fields": []},
        {"name": "SecuredCacheManager", "parent": "CacheManager", "fields": []},
    ]
}

GOLDEN_UNITS = {
    "core.model.xml": CORE_XML,
    "caches.model.xml": CACHES_XML,
    "retrievers.model.xml": RETRIEVERS_XML,
    "secured.model.xml": SECURED_XML,
    "pictures.model.xml": PICTURES_XML,
}


def write_golden(root, manifest: bool = True) -> None:
    for name, text in GOLDEN_UNITS.items():
        (root / name).write_text(text, encoding="utf-8")
    if manifest:
        (root / "manifest.json").write_text(
            json.dumps(MANIFEST, indent=2) + "\n", encoding="utf-8"
        )


def unit(text: str, path: str = "u.model.xml"):
    """Parse one dedented unit text."""
    from mtalk.source import parse_unit

    return parse_unit(textwrap.dedent(text), path)


def compile_texts(manifest=None, **units):
    """Compile keyword-named unit texts (name_model_xml -> name.model.xml)."""
    from mtalk.compiler import compile_model

    parsed = []
    parse_diags = []
    for key, text in units.items():
        path = key.replace("_", ".")
        u, diags = unit(text, path)
        parsed.append(u)
        parse_diags.extend(diags)
    return compile_model(parsed, manifest, parse_diags)


def compile_golden(manifest=None):
    """Compile the in-memory golden units (no filesystem)."""
    from mtalk.compiler import compile_model
    from mtalk.source import parse_unit

    parsed = []
    for path, text in GOLDEN_UNITS.items():
        u, diags = parse_unit(text, path)
        assert diags == [], [d.render() for d in diags]
        parsed.append(u)
    return compile_model(parsed, manifest)
